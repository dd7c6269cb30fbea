(** Integer timestamps.

    The domain [T] of the paper: non-negative integers. The unit is
    deliberately abstract (the experiments use minutes); helpers convert
    to and from "HH:MM" clock strings for the flight examples. *)

type t = int

val max_span : t
(** The largest window bound ([ATLEAST]/[WITHIN]) and detector horizon
    the engines accept: [max_int / 4 - 1]. {!Tcn.Weight.inf}, the
    temporal networks' "unbounded" sentinel, is [max_span + 1], so no
    accepted bound, and no difference between two timestamps at most a
    horizon apart, is ever read as "unbounded" or clamped
    (docs/DETECTION.md, "Why the plan needs no confirmation"). *)

val of_hm : string -> t
(** [of_hm "17:08"] is [17*60 + 8]. @raise Invalid_argument on bad syntax. *)

val to_hm : t -> string
(** Inverse of {!of_hm} modulo 24h wrapping is NOT applied: [to_hm 1448]
    is ["24:08"], preserving day arithmetic in examples. *)

val pp : Format.formatter -> t -> unit
val pp_hm : Format.formatter -> t -> unit
