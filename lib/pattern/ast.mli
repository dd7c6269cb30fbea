(** Event patterns (Definition 1 of the paper).

    A pattern is an event, or a [SEQ]/[AND] composition of sub-patterns,
    optionally constrained by a window [ATLEAST a] [WITHIN b] on the length
    of the time period it spans. [SEQ] means sequential occurrence (each
    sub-pattern ends before the next starts), [AND] concurrent occurrence
    (any interleaving). *)

type window = { atleast : Events.Time.t option; within : Events.Time.t option }
(** Optional lower/upper bound on [t[p^e] - t[p^s]]. *)

type t =
  | Event of Events.Event.t
  | Seq of t list * window
  | And of t list * window

val no_window : window
val window : ?atleast:Events.Time.t -> ?within:Events.Time.t -> unit -> window

val event : Events.Event.t -> t
val seq : ?atleast:Events.Time.t -> ?within:Events.Time.t -> t list -> t
val and_ : ?atleast:Events.Time.t -> ?within:Events.Time.t -> t list -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val events : t -> Events.Event.Set.t
(** All events mentioned in the pattern. *)

val events_of_set : t list -> Events.Event.Set.t
(** Union over a pattern set [P]. *)

val size : t -> int
(** Number of AST nodes. *)

val depth : t -> int
(** Nesting depth; a single event has depth 1. *)

val count_and : t -> int
(** Number of AND nodes (each contributes two binding conditions). *)

type shape =
  | Simple  (** no AND at all: encodable as a simple temporal network *)
  | And_no_seq_inside
      (** has AND, but no SEQ nested (directly or transitively) under any
          AND: single binding is provably optimal (Proposition 8) *)
  | General  (** anything else *)

val classify : t -> shape
(** The pattern class of Table 2 that drives algorithm selection. *)

val classify_set : t list -> shape
(** Weakest class over a pattern set ([General] dominates). *)

type error =
  | Empty_composition  (** a SEQ or AND with no sub-pattern *)
  | Inverted_window of Events.Time.t * Events.Time.t
      (** ATLEAST a WITHIN b with a > b *)
  | Negative_bound of Events.Time.t
  | Bound_above_limit of Events.Time.t
      (** a bound above {!Events.Time.max_span}: the temporal networks
          would read it as unbounded while {!Matcher} reads it literally *)
  | Duplicate_event of Events.Event.t
      (** the same event occurs twice in one pattern (tuples bind each event
          to a single timestamp, Definition 2) *)

val pp_error : Format.formatter -> error -> unit

val validate : t -> (unit, error) result
(** Structural well-formedness of Definition 1. *)

val validate_set : t list -> (unit, error) result
(** Each pattern of the set must be well-formed. Distinct patterns of a set
    may share events (that is how a set constrains a tuple jointly). *)

val pp : Format.formatter -> t -> unit
(** Canonical surface syntax, re-parseable by {!Parse.pattern}. *)

val to_string : t -> string
