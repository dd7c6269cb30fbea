module Event = Events.Event

let inf = Weight.inf

type frame = {
  saved : (int * int * int) list; (* (x, y, previous distance) *)
  interval : Condition.interval;
  made_inconsistent : bool;
}

type t = {
  events : Event.t array;
  index : int Event.Map.t;
  dist : int array array; (* (n+1)^2, last index = origin pinned at 0 *)
  mutable frames : frame list;
  mutable nframes : int; (* List.length frames, kept O(1) for metrics *)
  mutable inconsistent : bool;
}

let pushes_c = Obs.counter "stn_inc.pushes"
let pops_c = Obs.counter "stn_inc.pops"
let inconsistent_c = Obs.counter "stn_inc.inconsistency_hits"
let depth_g = Obs.gauge "stn_inc.max_depth"

let create events =
  let events = Array.of_list (List.sort_uniq Event.compare events) in
  let n = Array.length events in
  let index =
    Array.to_seqi events
    |> Seq.fold_left (fun acc (i, e) -> Event.Map.add e i acc) Event.Map.empty
  in
  let dist = Array.init (n + 1) (fun _ -> Array.make (n + 1) inf) in
  for i = 0 to n do
    dist.(i).(i) <- 0
  done;
  for i = 0 to n - 1 do
    (* t(i) >= 0: arc i -> origin with weight 0 *)
    dist.(i).(n) <- 0
  done;
  { events; index; dist; frames = []; nframes = 0; inconsistent = false }

(* Frames are immutable and shared; only the matrix is mutated in place. *)
let copy t = { t with dist = Array.map Array.copy t.dist }

let consistent t = not t.inconsistent

let find_index t e =
  match Event.Map.find_opt e t.index with
  | Some i -> i
  | None -> invalid_arg "Stn_inc: unknown event"

(* Add one arc u -> v of weight w, recording every touched cell. Returns
   the cells saved (prepended to [saved]) and whether a negative cycle
   appeared (in which case nothing was modified). *)
let add_arc t u v w saved =
  let w = Weight.clamp w in
  let d = t.dist in
  if d.(v).(u) < inf && Weight.sat_add d.(v).(u) w < 0 then (saved, false)
  else if w >= d.(u).(v) then (saved, true) (* not tightening *)
  else begin
    let n = Array.length t.events in
    let saved = ref saved in
    for x = 0 to n do
      if d.(x).(u) < inf then
        for y = 0 to n do
          if d.(v).(y) < inf then begin
            let cand = Weight.sat_add3 d.(x).(u) w d.(v).(y) in
            if cand < d.(x).(y) then begin
              saved := (x, y, d.(x).(y)) :: !saved;
              d.(x).(y) <- cand
            end
          end
        done
    done;
    (!saved, true)
  end

let push t ({ Condition.src; dst; lo; hi } as interval) =
  if t.inconsistent then invalid_arg "Stn_inc.push: inconsistent network (pop first)";
  Obs.incr pushes_c;
  let u = find_index t src and v = find_index t dst in
  let saved, ok =
    match hi with Some hi -> add_arc t u v hi [] | None -> ([], true)
  in
  let saved, ok =
    if ok then add_arc t v u (Weight.neg (Weight.clamp lo)) saved
    else (saved, ok)
  in
  if not ok then Obs.incr inconsistent_c;
  t.inconsistent <- not ok;
  t.frames <- { saved; interval; made_inconsistent = not ok } :: t.frames;
  t.nframes <- t.nframes + 1;
  Obs.gauge_max depth_g t.nframes;
  if Obs.Trace.should_emit () then
    Obs.Trace.emit (Obs.Trace.Stn_push { depth = t.nframes; consistent = ok });
  ok

let pop t =
  match t.frames with
  | [] -> invalid_arg "Stn_inc.pop: empty stack"
  | { saved; made_inconsistent; _ } :: rest ->
      Obs.incr pops_c;
      List.iter (fun (x, y, old) -> t.dist.(x).(y) <- old) saved;
      if made_inconsistent then t.inconsistent <- false;
      t.frames <- rest;
      t.nframes <- t.nframes - 1;
      if Obs.Trace.should_emit () then
        Obs.Trace.emit (Obs.Trace.Stn_pop { depth = t.nframes })

let depth t = t.nframes

let events t = t.events

let distance t i j =
  if t.inconsistent then invalid_arg "Stn_inc.distance: inconsistent network";
  t.dist.(i).(j)

let solution t =
  if t.inconsistent then None
  else
    (* One plain network at the success leaf is cheap and reuses the
       well-tested extraction of [Stn]. *)
    Stn.of_intervals
      ~events:(Array.to_list t.events)
      (List.map (fun f -> f.interval) t.frames)
    |> Stn.solution
