type t = {
  n : int;
  mutable to_ : int array;
  mutable cap : int array; (* residual capacity *)
  mutable cost : int array;
  mutable from_ : int array;
  mutable m : int; (* number of arcs (forward + reverse) *)
}

type edge = int (* index of the forward arc; reverse is [edge lxor 1] *)

let create n = { n; to_ = [||]; cap = [||]; cost = [||]; from_ = [||]; m = 0 }

let grow g =
  let cap_now = Array.length g.to_ in
  if g.m + 2 > cap_now then begin
    let ncap = max 16 (2 * cap_now) in
    let extend a = Array.append a (Array.make (ncap - cap_now) 0) (* check: idx - arc-array sizes *) in
    g.to_ <- extend g.to_;
    g.cap <- extend g.cap;
    g.cost <- extend g.cost;
    g.from_ <- extend g.from_
  end

let add_edge g ~src ~dst ~cap ~cost =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Mcf.add_edge: node out of range";
  if cap < 0 then invalid_arg "Mcf.add_edge: negative capacity";
  grow g;
  let e = g.m in
  g.to_.(e) <- dst;
  g.from_.(e) <- src;
  g.cap.(e) <- cap;
  g.cost.(e) <- cost;
  g.to_.(e + 1) <- src;
  g.from_.(e + 1) <- dst;
  g.cap.(e + 1) <- 0;
  g.cost.(e + 1) <- Numeric.Checked.neg cost;
  g.m <- g.m + 2;
  e

(* One Bellman-Ford sweep initialised at distance 0 everywhere (a virtual
   zero-cost source to all nodes): any relaxation surviving n passes exposes
   a negative residual cycle, recovered by walking predecessor arcs. *)
let find_negative_cycle g =
  let dist = Array.make g.n 0 in
  let pred = Array.make g.n (-1) in
  let updated_node = ref (-1) in
  for _pass = 1 to g.n do
    updated_node := -1;
    for e = 0 to g.m - 1 do
      if g.cap.(e) > 0 then begin
        let u = g.from_.(e) and v = g.to_.(e) in
        let cand = Numeric.Checked.add dist.(u) g.cost.(e) in
        if cand < dist.(v) then begin
          dist.(v) <- cand;
          pred.(v) <- e;
          updated_node := v
        end
      end
    done
  done;
  if !updated_node < 0 then None
  else begin
    (* Walk back n steps to guarantee landing inside the cycle. *)
    let v = ref !updated_node in
    for _ = 1 to g.n do
      v := g.from_.(pred.(!v))
    done;
    let start = !v in
    let rec collect v acc =
      let e = pred.(v) in
      let u = g.from_.(e) in
      if u = start then e :: acc else collect u (e :: acc)
    in
    Some (collect start [])
  end

let min_cost_circulation g =
  let total = ref 0 in
  let rec loop () =
    match find_negative_cycle g with
    | None -> !total
    | Some cycle ->
        let bottleneck =
          List.fold_left (fun acc e -> min acc g.cap.(e)) max_int cycle
        in
        List.iter
          (fun e ->
            g.cap.(e) <- g.cap.(e) - bottleneck (* check: arith - bottleneck <= cap by construction *);
            g.cap.(e lxor 1) <- Numeric.Checked.add g.cap.(e lxor 1) bottleneck;
            total := Numeric.Checked.add !total (Numeric.Checked.mul bottleneck g.cost.(e)))
          cycle;
        loop ()
  in
  loop ()

let flow g e = g.cap.(e lxor 1)

let iter_residual g f =
  for e = 0 to g.m - 1 do
    if g.cap.(e) > 0 then f ~src:g.from_.(e) ~dst:g.to_.(e) ~cost:g.cost.(e)
  done

let residual_distances g ~source =
  if source < 0 || source >= g.n then invalid_arg "Mcf.residual_distances: bad source";
  let dist = Array.make g.n None in
  dist.(source) <- Some 0;
  let changed = ref true in
  let passes = ref 0 in
  while !changed do
    changed := false;
    incr passes;
    if !passes > g.n then
      invalid_arg "Mcf.residual_distances: negative residual cycle";
    for e = 0 to g.m - 1 do
      if g.cap.(e) > 0 then
        match dist.(g.from_.(e)) with
        | None -> ()
        | Some du ->
            let cand = Numeric.Checked.add du g.cost.(e) in
            let better =
              match dist.(g.to_.(e)) with None -> true | Some dv -> cand < dv
            in
            if better then begin
              dist.(g.to_.(e)) <- Some cand;
              changed := true
            end
    done
  done;
  dist
