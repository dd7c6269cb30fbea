(** Minimum-cost circulation by negative-cycle canceling (Klein's algorithm).

    The L1 timestamp repair over a simple temporal network is the LP dual of
    a min-cost circulation; this solver provides an exact integral solution
    path independent of {!Simplex}, used both as an alternative repair
    engine and as a cross-check in property tests (both must report the
    same optimum).

    Costs and capacities are machine integers; flows and objective values of
    an optimal circulation are integral by construction. *)

type t
type edge

val create : int -> t
(** [create n] is an empty graph over nodes [0 .. n-1]. *)

val num_nodes : t -> int

val add_edge : t -> src:int -> dst:int -> cap:int -> cost:int -> edge
(** Directed edge with capacity [cap >= 0] and per-unit cost. *)

val min_cost_circulation : t -> int
(** Cancel negative residual cycles until none remain; returns the total
    cost of the resulting circulation (non-positive). Mutates flows. *)

val flow : t -> edge -> int
(** Flow on an edge after {!min_cost_circulation}. *)

val iter_residual : t -> (src:int -> dst:int -> cost:int -> unit) -> unit
(** Iterate over every residual arc (positive remaining capacity), forward
    and reverse alike, with its residual cost. *)

val residual_distances : t -> source:int -> int option array
(** Shortest-path distances over residual arcs (cost on forward residual
    arcs, negated cost on reverse arcs) from [source], after the
    circulation is optimal. [None] marks unreachable nodes. Used to read
    off the optimal primal (potentials) of the repair dual.
    @raise Invalid_argument if a negative residual cycle remains. *)
