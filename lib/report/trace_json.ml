module T = Obs.Trace

type format = Jsonl | Chrome | Folded

let format_of_string = function
  | "jsonl" -> Some Jsonl
  | "chrome" -> Some Chrome
  | "folded" -> Some Folded
  | _ -> None

(* Payload fields of each event kind, shared by the JSONL lines and the
   chrome "args" objects. Key order is fixed, so renders are
   deterministic. *)
let payload (kind : T.kind) =
  match kind with
  | T.Span_open { name; parent } ->
      [ ("name", Json.String name); ("parent", Json.Int parent) ]
  | T.Span_close { name } -> [ ("name", Json.String name) ]
  | T.Bnb_node { level } -> [ ("level", Json.Int level) ]
  | T.Bnb_prune { reason; gap } ->
      [
        ("reason", Json.String (T.prune_reason_name reason));
        ("gap", Json.Int gap);
      ]
  | T.Bnb_incumbent { cost } -> [ ("cost", Json.Int cost) ]
  | T.Bnb_zero_stop { top } -> [ ("top", Json.Int top) ]
  | T.Stn_push { depth; consistent } ->
      [ ("depth", Json.Int depth); ("consistent", Json.Bool consistent) ]
  | T.Stn_pop { depth } -> [ ("depth", Json.Int depth) ]
  | T.Simplex_phase { phase } -> [ ("phase", Json.Int phase) ]
  | T.Simplex_outcome { outcome } -> [ ("outcome", Json.String outcome) ]
  | T.Detector_admit { live } -> [ ("live", Json.Int live) ]
  | T.Detector_evict { reason; count } ->
      [
        ("reason", Json.String (T.evict_reason_name reason));
        ("count", Json.Int count);
      ]
  | T.Detector_match { count } -> [ ("count", Json.Int count) ]
  | T.Stream_verdict { verdict } -> [ ("verdict", Json.String verdict) ]
  | T.Mark { label } -> [ ("label", Json.String label) ]

let event_obj ~timings (e : T.event) =
  Json.Obj
    (("trace", Json.Int e.trace_id)
    :: ("dom", Json.Int e.dom)
    :: ("span", Json.Int e.span)
    :: ((if timings then [ ("ts_ns", Json.Int e.ts_ns) ] else [])
       @ ("type", Json.String (T.kind_name e.kind))
       :: payload e.kind))

let jsonl ?(timings = true) events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_obj ~timings e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* chrome://tracing (and Perfetto) trace-event format: a JSON array of
   B/E duration events and "i" instants, timestamps in microseconds.
   pid = trace id, tid = emitting domain, so each query renders as its
   own process row with one track per domain. *)
let chrome events =
  let t0 =
    List.fold_left (fun acc (e : T.event) -> min acc e.ts_ns) max_int events
  in
  let us (e : T.event) = Json.Float (float_of_int (e.ts_ns - t0) /. 1e3) in
  let base (e : T.event) ~name ~ph rest =
    Json.Obj
      (("name", Json.String name)
      :: ("cat", Json.String "whynot")
      :: ("ph", Json.String ph)
      :: ("ts", us e)
      :: ("pid", Json.Int e.trace_id)
      :: ("tid", Json.Int e.dom)
      :: rest)
  in
  let render (e : T.event) =
    match e.kind with
    | T.Span_open { name; _ } -> base e ~name ~ph:"B" []
    | T.Span_close { name } -> base e ~name ~ph:"E" []
    | kind ->
        base e ~name:(T.kind_name kind) ~ph:"i"
          [ ("s", Json.String "t"); ("args", Json.Obj (payload kind)) ]
  in
  Json.to_string (Json.List (List.map render events))

(* Folded flamegraph stacks: "root;child;leaf <self-time-ns>" per line,
   aggregated over every trace in the event list (stack paths carry no
   trace id, so repeated query shapes merge). Reconstruction walks each
   domain's span open/close events in order; opens left dangling by a
   ring overrun are dropped rather than guessed at. *)
let folded events =
  let totals : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let stacks : (int, (string * int * int ref) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let stack_of dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks dom s;
        s
  in
  List.iter
    (fun (e : T.event) ->
      let stack = stack_of e.dom in
      match e.kind with
      | T.Span_open { name; _ } -> stack := (name, e.ts_ns, ref 0) :: !stack
      | T.Span_close { name } -> (
          match !stack with
          | (top, t_open, children_ns) :: rest when top = name ->
              stack := rest;
              let total = max 0 (e.ts_ns - t_open) in
              let self = max 0 (total - !children_ns) in
              (match rest with
              | (_, _, parent_children) :: _ ->
                  parent_children := !parent_children + total
              | [] -> ());
              let path =
                String.concat ";" (List.rev_map (fun (n, _, _) -> n) !stack)
              in
              let path = if path = "" then top else path ^ ";" ^ top in
              Hashtbl.replace totals path
                (self + Option.value ~default:0 (Hashtbl.find_opt totals path))
          | _ ->
              (* close without a matching open: its open fell off the
                 ring — skip rather than corrupt the stack *)
              ())
      | _ -> ())
    events;
  Hashtbl.fold (fun path ns acc -> (path, ns) :: acc) totals []
  |> List.sort (fun (pa, na) (pb, nb) ->
         match String.compare pa pb with 0 -> Int.compare na nb | c -> c)
  |> List.map (fun (path, ns) -> Printf.sprintf "%s %d\n" path ns)
  |> String.concat ""

(* Span summaries for one captured request: pair each Span_open with its
   Span_close by span id, start times relative to the earliest event.
   Opens lost to the buffer limit (or never closed) are skipped.
   [gc_pauses] (merged disjoint wall-clock intervals, the request's
   [r_gc_pauses]) attributes runtime pause time to each span via its
   absolute [ts_ns] window. *)
let span_rows ?(gc_pauses = []) (events : T.event list) =
  let t0 =
    List.fold_left (fun acc (e : T.event) -> min acc e.ts_ns) max_int events
  in
  let opens : (int, string * int * int) Hashtbl.t = Hashtbl.create 16 in
  let rows = ref [] in
  List.iter
    (fun (e : T.event) ->
      match e.kind with
      | T.Span_open { name; parent } ->
          Hashtbl.replace opens e.span (name, parent, e.ts_ns)
      | T.Span_close _ -> (
          match Hashtbl.find_opt opens e.span with
          | Some (name, parent, ts) ->
              Hashtbl.remove opens e.span;
              rows := (e.span, name, parent, ts - t0, e.ts_ns - ts) :: !rows
          | None -> ())
      | _ -> ())
    events;
  List.sort
    (fun (ida, _, _, sa, _) (idb, _, _, sb, _) ->
      match Int.compare sa sb with 0 -> Int.compare ida idb | c -> c)
    !rows
  |> List.map (fun (id, name, parent, start_ns, dur_ns) ->
         let gc_us =
           Obs.Rt_events.overlap_us gc_pauses ~t0_ns:(t0 + start_ns)
             ~t1_ns:(t0 + start_ns + max 0 dur_ns)
         in
         Json.Obj
           [
             ("name", Json.String name);
             ("span", Json.Int id);
             ("parent", Json.Int parent);
             ("start_us", Json.Int (start_ns / 1000));
             ("duration_us", Json.Int (max 0 dur_ns / 1000));
             ("gc_overlap_us", Json.Int gc_us);
           ])

let slow_json (infos : Obs.Request.info list) =
  let req (i : Obs.Request.info) =
    Json.Obj
      [
        ("id", Json.String i.Obs.Request.r_id);
        ("method", Json.String i.r_meth);
        ("path", Json.String i.r_path);
        ("status", Json.Int i.r_status);
        ("shed", Json.Bool i.r_shed);
        ("keep_alive", Json.Bool i.r_keep_alive);
        ("bytes_in", Json.Int i.r_bytes_in);
        ("bytes_out", Json.Int i.r_bytes_out);
        ("start_ms", Json.Int i.r_start_ms);
        ("shards", Json.List (List.map (fun s -> Json.Int s) i.r_shards));
        ( "timings_us",
          Json.Obj
            [
              ("read", Json.Int i.r_read_us);
              ("service", Json.Int i.r_service_us);
              ("write", Json.Int i.r_write_us);
              ("total", Json.Int i.r_total_us);
            ] );
        ( "gc_us",
          Json.Obj
            [
              ("read", Json.Int i.r_gc_read_us);
              ("service", Json.Int i.r_gc_service_us);
              ("write", Json.Int i.r_gc_write_us);
              ("total", Json.Int i.r_gc_overlap_us);
            ] );
        ( "trace",
          Json.Obj
            [
              ("events", Json.Int (List.length i.r_events));
              ("dropped", Json.Int i.r_events_dropped);
              ( "spans",
                Json.List (span_rows ~gc_pauses:i.r_gc_pauses i.r_events) );
            ] );
      ]
  in
  Json.to_string (Json.Obj [ ("requests", Json.List (List.map req infos)) ])

let render ?timings format events =
  match format with
  | Jsonl -> jsonl ?timings events
  | Chrome -> chrome events
  | Folded -> folded events

let write_file ?timings ~format path events =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (render ?timings format events))
