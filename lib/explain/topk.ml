module Event = Events.Event
module Tuple = Events.Tuple

type candidate = {
  repaired : Tuple.t;
  cost : int;
  binding : Tcn.Condition.interval list;
}

type blame = {
  event : Event.t;
  frequency : float;
  mean_shift : float;
}

type t = {
  candidates : candidate list;
  blames : blame list;
  bindings_tried : int;
}

let strip_artificial tuple =
  Tuple.fold
    (fun e ts acc -> if Event.is_artificial e then acc else Tuple.add e ts acc)
    tuple Tuple.empty

let blames_of tuple candidates =
  let stats = Hashtbl.create 8 in
  let total = List.length candidates in
  List.iter
    (fun { repaired; _ } ->
      List.iter
        (fun (e, old_ts, new_ts) ->
          let count, shift =
            Option.value ~default:(0, 0) (Hashtbl.find_opt stats e)
          in
          Hashtbl.replace stats e (count + 1, shift + abs (new_ts - old_ts)))
        (Tuple.diff tuple repaired))
    candidates;
  Hashtbl.fold
    (fun event (count, shift) acc ->
      {
        event;
        frequency = float_of_int count /. float_of_int total;
        mean_shift = float_of_int shift /. float_of_int count;
      }
      :: acc)
    stats []
  |> List.sort (fun a b ->
         match Float.compare b.frequency a.frequency with
         | 0 -> Float.compare b.mean_shift a.mean_shift
         | c -> c)

let explain ?(k = 3) patterns tuple =
  (match Pattern.Ast.validate_set patterns with
  | Ok () -> ()
  | Error e -> invalid_arg (Format.asprintf "Topk.explain: %a" Pattern.Ast.pp_error e));
  if k < 1 then invalid_arg "Topk.explain: k must be positive";
  let net = Tcn.Encode.pattern_set patterns in
  let extended =
    match Tcn.Encode.extend net tuple with
    | extended -> extended
    | exception Not_found ->
        invalid_arg "Topk.explain: tuple does not bind every pattern event"
  in
  let tried = ref 0 in
  let candidates = ref [] in
  (* Depth-first over the binding tree on one incremental closure, so
     shared binding prefixes share their consistency work and whole
     inconsistent subtrees are skipped without enumerating their leaves.
     Leaf order equals {!Tcn.Bindings.full} enumeration order. *)
  let gammas = Array.of_list net.set_bindings in
  let ngammas = Array.length gammas in
  let choices = Array.map Tcn.Bindings.choices gammas in
  let universe =
    Event.Set.union
      (Tcn.Condition.interval_events net.set_intervals)
      (Tcn.Condition.binding_events net.set_bindings)
  in
  let inc = Tcn.Stn_inc.create (Event.Set.elements universe) in
  let ev = Tcn.Stn_inc.events inc in
  let n = Array.length ev in
  let index =
    Array.to_seqi ev
    |> Seq.fold_left (fun acc (i, e) -> Event.Map.add e i acc) Event.Map.empty
  in
  (* per closure index: mentioned by Φ, or by this many pushed choices *)
  let base = Array.make n false in
  let counts = Array.make n 0 in
  let mention { Tcn.Condition.src; dst; _ } f =
    f (Event.Map.find src index);
    f (Event.Map.find dst index)
  in
  List.iter (fun phi -> mention phi (fun i -> base.(i) <- true)) net.set_intervals;
  let grounded i = base.(i) || counts.(i) > 0 in
  (* Each consistent leaf's repair is read off its live closure ({!Leaf}):
     the earliest optimal one, as {!Modification} answers. *)
  let leaf =
    Leaf.create (Tcn.Stn_inc.distance inc) (Leaf.observed ev extended)
      (Array.of_seq
         (Seq.filter (fun i -> not (Event.is_artificial ev.(i))) (Seq.init n Fun.id)))
  in
  let base_ok =
    List.for_all (fun phi -> Tcn.Stn_inc.push inc phi) net.set_intervals
  in
  let dummy = Tcn.Condition.exact "" "" in
  let path = Array.make ngammas dummy in
  let solve_leaf () =
    incr tried;
    let phi_k = Array.to_list path in
    Leaf.load leaf grounded;
    let repair =
      match Leaf.price leaf with
      | Some cost ->
          let free i = Event.is_artificial ev.(i) && grounded i in
          Some (Leaf.repaired ev (Leaf.read leaf ~free), cost)
      | None ->
          (* past [Leaf.max_active] active events *)
          Option.map
            (fun { Lp_repair.repaired; cost; _ } -> (repaired, cost))
            (Lp_repair.repair extended (phi_k @ net.set_intervals))
    in
    match repair with
    | None -> ()
    | Some (repaired, cost) ->
        let repaired = Tuple.union_right tuple (strip_artificial repaired) in
        candidates := { repaired; cost; binding = phi_k } :: !candidates
  in
  let rec dfs level =
    if level = ngammas then solve_leaf ()
    else
      List.iter
        (fun phi ->
          if Tcn.Stn_inc.push inc phi then begin
            path.(level) <- phi;
            mention phi (fun i -> counts.(i) <- counts.(i) + 1);
            dfs (level + 1);
            mention phi (fun i -> counts.(i) <- counts.(i) - 1)
          end;
          Tcn.Stn_inc.pop inc)
        choices.(level)
  in
  if base_ok then dfs 0;
  match !candidates with
  | [] -> None
  | all ->
      let distinct =
        List.sort
          (fun a b ->
            match Int.compare a.cost b.cost with
            | 0 ->
                List.compare
                  (fun (e1, t1) (e2, t2) ->
                    match Event.compare e1 e2 with 0 -> Int.compare t1 t2 | c -> c)
                  (Tuple.bindings a.repaired)
                  (Tuple.bindings b.repaired)
            | c -> c)
          all
        |> List.fold_left
             (fun acc c ->
               if List.exists (fun kept -> Tuple.equal kept.repaired c.repaired) acc
               then acc
               else c :: acc)
             []
        |> List.rev
      in
      let top =
        List.filteri (fun i _ -> i < k) distinct
      in
      Some
        {
          candidates = top;
          blames = blames_of tuple distinct;
          bindings_tried = !tried;
        }
