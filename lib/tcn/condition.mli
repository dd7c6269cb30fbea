(** Interval and binding conditions (Definitions 3 and 4).

    An interval condition [phi (src, dst) : \[lo, hi\]] constrains the
    timestamp distance [t(dst) - t(src)] to lie in [\[lo, hi\]]; [hi = None]
    means unbounded above (the paper's [w], the maximum distance, taken as
    infinity). A binding condition [gamma (bound, over) : kind] forces
    [t(bound)] to equal the minimum (resp. maximum) timestamp among the
    events of [over]. *)

type interval = {
  src : Events.Event.t;
  dst : Events.Event.t;
  lo : Events.Time.t;
  hi : Events.Time.t option;  (** [None] = unbounded *)
}

val interval : ?hi:Events.Time.t -> ?lo:Events.Time.t -> Events.Event.t -> Events.Event.t -> interval
(** [interval ~lo ~hi src dst]; [lo] defaults to 0, [hi] to unbounded. *)

val exact : Events.Event.t -> Events.Event.t -> interval
(** [\[0, 0\]]: the two events are simultaneous (a full-binding choice). *)

val interval_holds : Events.Tuple.t -> interval -> bool
(** [t |= phi]; false if either event is unbound in the tuple. *)

val intervals_hold : Events.Tuple.t -> interval list -> bool

type binding_kind = Min | Max

type binding = {
  bound : Events.Event.t;
  over : Events.Event.t list;  (** non-empty *)
  kind : binding_kind;
}

val binding_holds : Events.Tuple.t -> binding -> bool
(** [t |= gamma]; false if any involved event is unbound. *)

val bindings_hold : Events.Tuple.t -> binding list -> bool

val interval_events : interval list -> Events.Event.Set.t
val binding_events : binding list -> Events.Event.Set.t

val pp_interval : Format.formatter -> interval -> unit
