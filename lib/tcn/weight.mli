(** Distance-graph weights with an "unbounded" sentinel.

    STN distance matrices use [inf] as the sentinel for "no bound". Weights
    entering a network are clamped into [[-inf, inf]] and propagation sums
    saturate instead of wrapping, so adversarially large user bounds can
    never corrupt a shortest-path closure. *)

val inf : int
(** The "unbounded" sentinel ([max_int / 4], that is
    {!Events.Time.max_span} + 1): large enough to dominate every window
    bound and horizon the engines accept, small enough that sums of two
    weights never wrap. *)

val clamp : int -> int
(** Pin a weight into [[-inf, inf]]. *)

val neg : int -> int
(** Negation that cannot wrap ([neg min_int = max_int]). *)

val sat_add : int -> int -> int
(** Saturating addition: a sum that would wrap is pinned to
    [max_int] / [min_int] instead. *)

val sat_sub : int -> int -> int
(** Saturating subtraction: [a - b], or [max_int] / [min_int] when that
    would wrap. Exact wherever [a - b] fits, unlike
    [sat_add a (neg b)], which is one short at [b = min_int]. *)

val sat_add3 : int -> int -> int -> int
(** [sat_add3 a b c = sat_add (sat_add a b) c]. *)
