module Event = Events.Event
module Tuple = Events.Tuple

(* Distances use [Weight.inf] for "unbounded". User-supplied bounds are
   clamped into [-inf, inf] on entry and propagation sums saturate, so
   adversarially large bounds can never silently wrap. *)
let inf = Weight.inf
let clamp = Weight.clamp
let neg = Weight.neg
let sat_add = Weight.sat_add

type t = {
  events : Event.t array;
  index : int Event.Map.t;
  dist : int array array; (* (n+1) x (n+1); last index = virtual origin *)
  consistent : bool;
}

let of_intervals ?(events = []) ?(absolute = []) intervals =
  let set =
    List.fold_left
      (fun acc e -> Event.Set.add e acc)
      (Condition.interval_events intervals)
      events
  in
  let set =
    List.fold_left (fun acc (e, _, _) -> Event.Set.add e acc) set absolute
  in
  let evs = Array.of_list (Event.Set.elements set) in
  let n = Array.length evs in
  let index =
    Array.to_seqi evs
    |> Seq.fold_left (fun acc (i, e) -> Event.Map.add e i acc) Event.Map.empty
  in
  let dist = Array.init (n + 1) (fun _ -> Array.make (n + 1) inf) in
  for i = 0 to n do
    dist.(i).(i) <- 0
  done;
  (* Virtual origin at index n, pinned at time 0: every event is >= 0. *)
  for i = 0 to n - 1 do
    dist.(i).(n) <- 0
  done;
  let tighten i j w = if w < dist.(i).(j) then dist.(i).(j) <- w in
  List.iter
    (fun { Condition.src; dst; lo; hi } ->
      let i = Event.Map.find src index and j = Event.Map.find dst index in
      (match hi with Some hi -> tighten i j (clamp hi) | None -> ());
      tighten j i (neg (clamp lo)))
    intervals;
  (* absolute bounds: t(e) - t(origin) in [lo, hi] with the origin at 0 *)
  List.iter
    (fun (e, lo, hi) ->
      let i = Event.Map.find e index in
      tighten n i (clamp hi);
      tighten i n (neg (clamp lo)))
    absolute;
  for k = 0 to n do
    for i = 0 to n do
      if dist.(i).(k) < inf then
        for j = 0 to n do
          if dist.(k).(j) < inf then
            let via = sat_add dist.(i).(k) dist.(k).(j) in
            if via < dist.(i).(j) then dist.(i).(j) <- via
        done
    done
  done;
  let consistent =
    let rec ok i = i > n || (dist.(i).(i) >= 0 && ok (i + 1)) in
    ok 0
  in
  { events = evs; index; dist; consistent }

let events t = t.events
let consistent t = t.consistent

let find_index t e =
  match Event.Map.find_opt e t.index with
  | Some i -> i
  | None -> invalid_arg "Stn: unknown event"

let distance t src dst =
  if not t.consistent then invalid_arg "Stn.distance: inconsistent network";
  let d = t.dist.(find_index t src).(find_index t dst) in
  if d >= inf then None else Some d

let distance_at t i j =
  if not t.consistent then invalid_arg "Stn.distance_at: inconsistent network";
  t.dist.(i).(j)

let distance_matrix t evs =
  if not t.consistent then
    invalid_arg "Stn.distance_matrix: inconsistent network";
  let m = Array.length evs in
  let idx = Array.map (fun e -> Event.Map.find_opt e t.index) evs in
  Array.init m (fun i ->
      Array.init m (fun j ->
          if i = j then 0
          else
            match (idx.(i), idx.(j)) with
            | Some a, Some b -> t.dist.(a).(b)
            | None, _ | _, None -> inf))

(* Minimal STNs are decomposable: assigning events one by one, each inside
   the bounds induced by the already-assigned ones (origin included), can
   never get stuck. [pick] chooses a value within [lower, upper]. *)
let assign_greedy t pick =
  if not t.consistent then None
  else begin
    let n = Array.length t.events in
    let value = Array.make (n + 1) 0 in
    let assigned = Array.make (n + 1) false in
    assigned.(n) <- true (* origin at 0 *);
    for i = 0 to n - 1 do
      let lower = ref min_int and upper = ref max_int in
      for j = 0 to n do
        if assigned.(j) then begin
          (* value_i - value_j <= dist(j)(i)  and  value_j - value_i <= dist(i)(j) *)
          if t.dist.(j).(i) < inf then
            upper := min !upper (sat_add value.(j) t.dist.(j).(i));
          if t.dist.(i).(j) < inf then
            lower := max !lower (sat_add value.(j) (neg t.dist.(i).(j)))
        end
      done;
      let lower = if !lower = min_int then 0 else !lower in
      assert (lower <= !upper);
      value.(i) <- pick i lower !upper;
      assigned.(i) <- true
    done;
    let tuple = ref Tuple.empty in
    Array.iteri (fun i e -> tuple := Tuple.add e value.(i) !tuple) t.events;
    Some !tuple
  end

let solution t = assign_greedy t (fun _ lower _upper -> lower)

let solution_near t reference =
  assign_greedy t (fun i lower upper ->
      match Tuple.find_opt reference t.events.(i) with
      | None -> lower
      | Some r -> if r < lower then lower else if r > upper then upper else r)
