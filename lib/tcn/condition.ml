module Event = Events.Event
module Tuple = Events.Tuple

type interval = {
  src : Event.t;
  dst : Event.t;
  lo : Events.Time.t;
  hi : Events.Time.t option;
}

let interval ?hi ?(lo = 0) src dst = { src; dst; lo; hi }
let exact src dst = { src; dst; lo = 0; hi = Some 0 }

let interval_holds t { src; dst; lo; hi } =
  match (Tuple.find_opt t src, Tuple.find_opt t dst) with
  | Some ts, Some td ->
      (* Saturating difference: adversarial timestamps must not wrap the
         comparison around. *)
      let d = Weight.sat_add td (Weight.neg ts) in
      d >= lo && (match hi with None -> true | Some hi -> d <= hi)
  | _ -> false

let intervals_hold t phis = List.for_all (interval_holds t) phis

type binding_kind = Min | Max

type binding = { bound : Event.t; over : Event.t list; kind : binding_kind }

let binding_holds t { bound; over; kind } =
  match Tuple.find_opt t bound with
  | None -> false
  | Some tb -> (
      let ts = List.map (Tuple.find_opt t) over in
      if List.exists Option.is_none ts then false
      else
        let ts = List.filter_map Fun.id ts in
        match kind with
        | Min -> tb = List.fold_left min max_int ts
        | Max -> tb = List.fold_left max min_int ts)

let bindings_hold t gammas = List.for_all (binding_holds t) gammas

let interval_events phis =
  List.fold_left
    (fun acc { src; dst; _ } -> Event.Set.add src (Event.Set.add dst acc))
    Event.Set.empty phis

let binding_events gammas =
  List.fold_left
    (fun acc { bound; over; _ } ->
      List.fold_left (fun acc e -> Event.Set.add e acc) (Event.Set.add bound acc) over)
    Event.Set.empty gammas

let pp_interval ppf { src; dst; lo; hi } =
  Format.fprintf ppf "phi(%a, %a):[%d, %s]" Event.pp src Event.pp dst lo
    (match hi with None -> "w" | Some hi -> string_of_int hi)
