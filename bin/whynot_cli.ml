(* The whynot command-line tool: parse/inspect event pattern queries, match
   tuples, check query consistency (Algorithm 1), explain non-answers by
   timestamp modification (Algorithm 2), and generate benchmark datasets. *)

open Cmdliner
module Ast = Whynot.Pattern.Ast
module Tuple = Whynot.Events.Tuple
module Trace = Whynot.Events.Trace

let pattern_set_conv =
  let parse s =
    match Whynot.Pattern.Parse.pattern_set s with
    | Ok ps -> Ok ps
    | Error msg -> Error (`Msg msg)
  in
  let print ppf ps =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
      Ast.pp ppf ps
  in
  Arg.conv (parse, print)

let query_arg =
  Arg.(
    required
    & pos 0 (some pattern_set_conv) None
    & info [] ~docv:"QUERY"
        ~doc:
          "Event pattern query: one or more patterns separated by ';', e.g. \
           'SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 2 hours'.")

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "t"; "input" ] ~docv:"CSV"
        ~doc:"Input trace file (CSV: tuple_id,event,timestamp).")

let tuple_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "tuple" ] ~docv:"ID"
        ~doc:"Restrict to one tuple of the trace (default: all).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the command (even on a nonzero exit), print the engine's \
           metrics snapshot — solver/search counters, state gauges, latency \
           spans — as JSON on stdout. See docs/OBSERVABILITY.md for the \
           schema.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured execution trace of the run (per-query spans \
           and search events) to $(docv). See docs/OBSERVABILITY.md for the \
           schema.")

let trace_format_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("jsonl", Whynot.Report.Trace_json.Jsonl);
             ("chrome", Whynot.Report.Trace_json.Chrome);
             ("folded", Whynot.Report.Trace_json.Folded);
           ])
        Whynot.Report.Trace_json.Jsonl
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace output format: $(b,jsonl) (one JSON event per line, \
           default), $(b,chrome) (chrome://tracing / Perfetto trace-event \
           JSON), or $(b,folded) (flamegraph folded stacks).")

let trace_sample_arg =
  Arg.(
    value & opt int 1
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Record every $(docv)-th top-level query trace (deterministic by \
           arrival order; default 1 = trace every query).")

let rt_events_arg =
  Arg.(
    value & flag
    & info [ "rt-events" ]
        ~doc:
          "Profile the OCaml runtime via Runtime_events self-monitoring: \
           decode per-domain GC pauses into runtime.gc.pause.* metrics and \
           attribute pause time to request stages (gc_overlap_us in the \
           access log, /debug/slow and GET /debug/gc). See \
           docs/SERVING.md.")

let print_json v = print_endline (Whynot.Report.Json.to_string ~indent:2 v)

(* Registered via [at_exit] so the snapshot/trace is also written on the
   [exit 1] paths (inconsistent query, no match, ...). *)
let setup_obs metrics trace_file trace_format trace_sample rt_events =
  if metrics then
    at_exit (fun () -> print_json (Whynot.Report.Obs_json.snapshot ()));
  if rt_events then begin
    Whynot.Obs.Rt_events.start ();
    at_exit Whynot.Obs.Rt_events.stop
  end;
  match trace_file with
  | None -> ()
  | Some path ->
      if trace_sample < 1 then begin
        Printf.eprintf "whynot: --trace-sample must be >= 1\n";
        exit 2
      end;
      Whynot.Obs.Trace.configure ~sample:trace_sample ();
      at_exit (fun () ->
          Whynot.Report.Trace_json.write_file ~format:trace_format path
            (Whynot.Obs.Trace.events ()))

let obs_term =
  Term.(
    const setup_obs $ metrics_arg $ trace_out_arg $ trace_format_arg
    $ trace_sample_arg $ rt_events_arg)

let load_trace path =
  match Whynot.Events.Csv_io.read_trace path with
  | Ok trace -> trace
  | Error msg -> (
      Printf.eprintf "error reading %s: %s\n" path msg;
      exit 2)

let selected_tuples trace = function
  | None -> Trace.bindings trace
  | Some id -> (
      match Trace.find_opt trace id with
      | Some t -> [ (id, t) ]
      | None ->
          Printf.eprintf "no tuple %s in trace\n" id;
          exit 2)

(* The repair's exact arithmetic raises instead of wrapping when a tuple's
   timestamps are too far apart: name the tuple and exit 2. *)
let overflow_guard cmd id f =
  match f () with
  | r -> r
  | exception Whynot.Numeric.Checked.Overflow ->
      Printf.eprintf
        "whynot %s: tuple %s: timestamps too far apart to explain (integer \
         overflow)\n"
        cmd id;
      exit 2

(* --- parse --- *)

let parse_cmd =
  let run () query =
    List.iter
      (fun p ->
        let shape =
          match Ast.classify p with
          | Ast.Simple -> "simple temporal network (no AND)"
          | Ast.And_no_seq_inside -> "no SEQ embedded in AND"
          | Ast.General -> "general (SEQ embedded in AND)"
        in
        Format.printf "%a@.  events: %d, size: %d, depth: %d, class: %s@." Ast.pp p
          (Whynot.Events.Event.Set.cardinal (Ast.events p))
          (Ast.size p) (Ast.depth p) shape)
      query;
    let net = Whynot.Tcn.Encode.pattern_set query in
    let count = Whynot.Tcn.Bindings.count net.set_bindings in
    Format.printf "encoding: %d interval conditions, %d binding conditions, %s bindings@."
      (List.length net.set_intervals)
      (List.length net.set_bindings)
      (if Whynot.Tcn.Bindings.count_is_exact net.set_bindings then
         string_of_int count
       else Printf.sprintf ">= %d (overflow)" count)
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a query and show its structure and encoding size.")
    Term.(const run $ obs_term $ query_arg)

(* --- check --- *)

let check_cmd =
  let samples_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "s"; "samples" ]
          ~doc:"Use the randomized algorithm with $(docv) sampled bindings \
                (default: exact full binding)."
          ~docv:"N")
  in
  let run () query samples json =
    let strategy =
      match samples with
      | None -> Whynot.Explain.Consistency.Full
      | Some s -> Whynot.Explain.Consistency.Sampled s
    in
    let report = Whynot.Explain.Consistency.check ~strategy query in
    if json then begin
      print_json (Whynot.Report.Render.consistency report);
      exit (if report.consistent then 0 else 1)
    end;
    if report.consistent then begin
      Format.printf "consistent (checked %d binding(s))@." report.bindings_checked;
      match report.witness with
      | Some w -> Format.printf "witness: %a@." Tuple.pp w
      | None -> ()
    end
    else begin
      Format.printf "inconsistent%s (checked %d binding(s))@."
        (if report.exact then "" else " [randomized: may be a false negative]")
        report.bindings_checked;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Pattern consistency explanation (Algorithm 1): decide whether any \
          assignment of timestamps can satisfy the query.")
    Term.(const run $ obs_term $ query_arg $ samples_arg $ json_arg)

(* --- lint --- *)

let lint_cmd =
  let run () query =
    let report = Whynot.Explain.Lint.run query in
    if not report.consistent then
      Format.printf
        "UNSATISFIABLE: no tuple can ever match this query (pattern \
         consistency explanation)@.";
    if report.findings = [] then Format.printf "no windows to analyse@."
    else
      List.iter
        (fun f -> Format.printf "%a@." Whynot.Explain.Lint.pp_finding f)
        report.findings;
    let before, after = report.normalized_savings in
    if after < before then
      Format.printf
        "hint: normalization shrinks the binding space %d -> %d (see \
         Pattern.Rewrite.normalize)@."
        before after;
    let fatal =
      List.exists
        (fun f ->
          match f.Whynot.Explain.Lint.verdict with
          | Whynot.Explain.Lint.Fatal _ -> true
          | _ -> false)
        report.findings
    in
    if fatal || not report.consistent then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Analyse a query's windows: report bounds that are dead (implied by \
          the rest of the query) or fatal (make the query unsatisfiable).")
    Term.(const run $ obs_term $ query_arg)

(* --- match --- *)

let match_cmd =
  let run () query trace_path tuple_id =
    let trace = load_trace trace_path in
    List.iter
      (fun (id, t) ->
        match Whynot.Pattern.Matcher.explain_failure t query with
        | None -> Format.printf "%s: MATCH@." id
        | Some failure ->
            Format.printf "%s: no match (%a)@." id Whynot.Pattern.Matcher.pp_failure
              failure)
      (selected_tuples trace tuple_id)
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Evaluate the query over a trace (one verdict per tuple).")
    Term.(const run $ obs_term $ query_arg $ input_arg $ tuple_id_arg)

(* --- explain --- *)

let explain_cmd =
  let single_arg =
    Arg.(
      value & flag
      & info [ "single" ]
          ~doc:"Use the single-binding approximation (Definition 8) instead of \
                the exact full binding.")
  in
  let run () query trace_path tuple_id single json =
    let strategy =
      if single then Whynot.Explain.Modification.Single
      else Whynot.Explain.Modification.Full
    in
    let trace = load_trace trace_path in
    let report = Whynot.Explain.Consistency.check query in
    if not report.consistent then begin
      if json then
        print_json
          (Whynot.Report.Json.Obj
             [
               ("outcome", Whynot.Report.Json.String "inconsistent_query");
               ("consistency", Whynot.Report.Render.consistency report);
             ])
      else
        Format.printf
          "query is inconsistent: no tuple can ever match (pattern consistency \
           explanation)@.";
      exit 1
    end;
    let results =
      List.map
        (fun (id, t) ->
          let outcome =
            overflow_guard "explain" id (fun () ->
                Whynot.Explain.Pipeline.explain ~strategy query t)
          in
          (id, t, outcome))
        (selected_tuples trace tuple_id)
    in
    if json then
      print_json
        (Whynot.Report.Json.Obj
           (List.map
              (fun (id, t, outcome) ->
                (id, Whynot.Report.Render.pipeline ~original:t outcome))
              results))
    else
      List.iter
        (fun (id, t, outcome) ->
          match outcome with
          | Whynot.Explain.Pipeline.Already_answer ->
              Format.printf "%s: already matches@." id
          | Whynot.Explain.Pipeline.Modify_timestamps { repaired; cost; _ } ->
              Format.printf "%s: modification cost %d@." id cost;
              List.iter
                (fun (e, old_ts, new_ts) ->
                  Format.printf "  %s: %d -> %d@." e old_ts new_ts)
                (Tuple.diff t repaired)
          | outcome -> Format.printf "%s: %a@." id Whynot.Explain.Pipeline.pp_outcome outcome)
        results
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Timestamp modification explanation (Algorithm 2): minimally modify \
          each non-answer's timestamps to make it match.")
    Term.(
      const run $ obs_term $ query_arg $ input_arg $ tuple_id_arg $ single_arg
      $ json_arg)

(* --- diagnose --- *)

let diagnose_cmd =
  let run () query trace_path json =
    let trace = load_trace trace_path in
    let report = Whynot.Explain.Diagnose.run query trace in
    if json then print_json (Whynot.Report.Render.diagnose report)
    else Format.printf "%a" Whynot.Explain.Diagnose.pp report
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Aggregate why-not dashboard: failure classes and repair costs over \
          a whole trace.")
    Term.(const run $ obs_term $ query_arg $ input_arg $ json_arg)

(* --- why (top-k explanations) --- *)

let why_cmd =
  let k_arg =
    Arg.(value & opt int 3 & info [ "k" ] ~doc:"Number of candidate explanations.")
  in
  let run () query trace_path tuple_id k =
    let trace = load_trace trace_path in
    List.iter
      (fun (id, t) ->
        if Whynot.Pattern.Matcher.matches_set t query then
          Format.printf "%s: already matches@." id
        else
          match
            overflow_guard "why" id (fun () -> Whynot.Explain.Topk.explain ~k query t)
          with
          | None -> Format.printf "%s: query is inconsistent@." id
          | Some { candidates; blames; bindings_tried } ->
              Format.printf "%s: %d candidate explanation(s) over %d binding(s)@." id
                (List.length candidates) bindings_tried;
              List.iteri
                (fun rank c ->
                  Format.printf "  #%d cost %d:@." (rank + 1) c.Whynot.Explain.Topk.cost;
                  List.iter
                    (fun (e, o, n) -> Format.printf "    %s: %d -> %d@." e o n)
                    (Tuple.diff t c.repaired))
                candidates;
              Format.printf "  blame:@.";
              List.iter
                (fun b ->
                  Format.printf "    %s modified in %.0f%% of candidates (mean shift %.1f)@."
                    b.Whynot.Explain.Topk.event (100.0 *. b.frequency) b.mean_shift)
                blames)
      (selected_tuples trace tuple_id)
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Ranked why-not explanations: the k cheapest distinct timestamp \
          modifications, with a per-event blame summary.")
    Term.(const run $ obs_term $ query_arg $ input_arg $ tuple_id_arg $ k_arg)

(* --- fix-query (query modification explanation) --- *)

let fix_query_cmd =
  let run () query trace_path tuple_id =
    let trace = load_trace trace_path in
    let expected = List.map snd (selected_tuples trace tuple_id) in
    match Whynot.Explain.Query_repair.explain query expected with
    | Error f ->
        Format.printf "not fixable by window changes: %a@."
          Whynot.Explain.Query_repair.pp_failure f;
        exit 1
    | Ok { patterns; changes; cost } ->
        if changes = [] then Format.printf "query already accepts all expected tuples@."
        else begin
          Format.printf "total window adjustment: %d@." cost;
          List.iter
            (fun c ->
              Format.printf "  %a@." Whynot.Explain.Query_repair.pp_window_change c)
            changes;
          Format.printf "repaired query:@.";
          List.iter (fun p -> Format.printf "  %a@." Ast.pp p) patterns
        end
  in
  Cmd.v
    (Cmd.info "fix-query"
       ~doc:
         "Query modification explanation: minimally relax the query's \
          ATLEAST/WITHIN bounds so the expected tuples become answers.")
    Term.(const run $ obs_term $ query_arg $ input_arg $ tuple_id_arg)

(* --- detect (streaming) --- *)

let detect_cmd =
  let stream_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "s"; "stream" ] ~docv:"CSV"
          ~doc:"Stream file (CSV: event,timestamp[,tag]), timestamps non-decreasing.")
  in
  let horizon_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ]
          ~doc:"Time horizon for partial matches (default: the query's root WITHIN).")
  in
  let run () query stream_path horizon =
    let instances =
      let lines = In_channel.with_open_text stream_path In_channel.input_lines in
      (* detect runs one detector over the interleaved stream: a fourth
         (partition key) CSV column is accepted but ignored — keyed
         parallel detection is `whynot serve`'s job. *)
      match Whynot.Serve.Ingest.parse_lines lines with
      | Ok keyed ->
          List.map (fun k -> k.Whynot.Serve.Ingest.instance) keyed
      | Error e ->
          Printf.eprintf "%s\n" (Whynot.Serve.Ingest.error_to_string e);
          exit 2
    in
    let detector =
      match Whynot.Cep.Detector.create ?horizon query with
      | d -> d
      | exception Invalid_argument msg ->
          (* e.g. a --horizon that is negative or above the limit *)
          Printf.eprintf "whynot detect: %s\n" msg;
          exit 2
    in
    let matches = Whynot.Cep.Detector.feed_all detector instances in
    List.iter
      (fun m ->
        Format.printf "match: %a@."
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             (fun ppf (e, tag) ->
               Format.fprintf ppf "%s=%s@@%d" e tag
                 (Tuple.find m.Whynot.Cep.Detector.tuple e)))
          m.Whynot.Cep.Detector.tags)
      matches;
    Format.printf "%d match(es); %d partial(s) live, %d dropped@."
      (List.length matches)
      (Whynot.Cep.Detector.partial_count detector)
      (Whynot.Cep.Detector.dropped detector)
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Run the streaming detector over an interleaved event stream (CSV).")
    Term.(const run $ obs_term $ query_arg $ stream_arg $ horizon_arg)

(* --- serve (live telemetry service) --- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "TCP port to listen on (127.0.0.1 only). Default 0 picks an \
             ephemeral port; the chosen port is printed on stderr.")
  in
  let horizon_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ]
          ~doc:"Time horizon for partial matches (default: the query's root WITHIN).")
  in
  let max_partials_arg =
    Arg.(
      value
      & opt int Whynot.Serve.Service.default_max_partials
      & info [ "max-partials" ] ~docv:"N"
          ~doc:"Capacity bound on the detector's partial-match buffer.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "HTTP worker domains. Each accepts connections on the shared \
             listening socket and serves them; connections beyond the busy \
             workers wait in the kernel backlog (--backlog). 1 (default) \
             serves one connection at a time on the main domain. Each \
             worker runs detection for the batches it receives itself, \
             holding one involved shard's lock at a time.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Detector shards. Each partition key (the optional fourth \
             ingest CSV column) hashes to one shard; each key gets its own \
             detector. Keyless events pin to shard 0, so 1 (default) \
             behaves exactly like the single sequential detector.")
  in
  let shard_queue_arg =
    Arg.(
      value & opt int Whynot.Serve.Service.default_shard_queue
      & info [ "shard-queue" ] ~docv:"N"
          ~doc:
            "Ingest batches counted on a shard and not yet finished \
             (running, or waiting for a shard lock) before shedding: a \
             batch that finds any of its shards at N is refused with HTTP \
             429 and Retry-After, nothing applied. The count includes \
             batches about to shed, so below the number of concurrent \
             clients two contending batches can both be refused. 0 sheds \
             every batch.")
  in
  let backlog_arg =
    Arg.(
      value & opt int 128
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Kernel accept backlog for the listening socket.")
  in
  let stdin_arg =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Feed events from stdin (CSV lines: event,timestamp[,tag]) \
             instead of POST /ingest; match verdicts print to stdout as \
             JSONL and the server exits at EOF. The HTTP endpoints \
             (/metrics, /health, /ready) stay available throughout.")
  in
  let log_level_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("off", None);
               ("error", Some Whynot.Obs.Log.Error);
               ("warn", Some Whynot.Obs.Log.Warn);
               ("info", Some Whynot.Obs.Log.Info);
               ("debug", Some Whynot.Obs.Log.Debug);
             ])
          (Some Whynot.Obs.Log.Warn)
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured JSON log verbosity on stderr: $(b,off), $(b,error), \
             $(b,warn) (default), $(b,info) (per-match events), or \
             $(b,debug) (per-request events). See docs/SERVING.md for the \
             line schema.")
  in
  let slow_threshold_arg =
    Arg.(
      value & opt int 100
      & info [ "slow-threshold" ] ~docv:"MS"
          ~doc:
            "Latency threshold (milliseconds of service + write time) above \
             which a request's full trace is retained for GET /debug/slow. \
             Requests that shed (429) or error (status >= 400) are always \
             retained. 0 retains every request.")
  in
  let slow_capacity_arg =
    Arg.(
      value & opt int Whynot.Obs.Request.default_capacity
      & info [ "slow-capacity" ] ~docv:"N"
          ~doc:
            "Capacity of the /debug/slow retention ring (newest wins). 0 \
             disables tail capture entirely.")
  in
  let access_log_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("off", None);
               ("error", Some Whynot.Obs.Log.Error);
               ("warn", Some Whynot.Obs.Log.Warn);
               ("info", Some Whynot.Obs.Log.Info);
               ("debug", Some Whynot.Obs.Log.Debug);
             ])
          (Some Whynot.Obs.Log.Info)
      & info [ "access-log" ] ~docv:"LEVEL"
          ~doc:
            "Level the per-request serve.access line (request id, route, \
             status, decomposed stage timings) is emitted at — it prints \
             only when --log-level admits that level. $(b,info) is the \
             default; $(b,off) suppresses the line entirely.")
  in
  let run () query port horizon max_partials workers shards shard_queue
      backlog use_stdin log_level slow_threshold slow_capacity access_level =
    Whynot.Obs.Log.set_level log_level;
    if slow_threshold < 0 then begin
      Printf.eprintf "whynot serve: --slow-threshold must be >= 0\n";
      exit 2
    end;
    if slow_capacity < 0 then begin
      Printf.eprintf "whynot serve: --slow-capacity must be >= 0\n";
      exit 2
    end;
    Whynot.Obs.Request.configure ~threshold_us:(slow_threshold * 1000)
      ~capacity:slow_capacity ();
    Whynot.Obs.Request.set_access_level access_level;
    if workers < 1 then begin
      Printf.eprintf "whynot serve: --workers must be >= 1\n";
      exit 2
    end;
    if shards < 1 then begin
      Printf.eprintf "whynot serve: --shards must be >= 1\n";
      exit 2
    end;
    let help =
      (* HELP text for /metrics comes from the metric catalog when the
         repo's docs are around; a deployed binary falls back to the
         dotted source names. *)
      let docs_path = "docs/OBSERVABILITY.md" in
      if Sys.file_exists docs_path then
        let docs = In_channel.with_open_text docs_path In_channel.input_all in
        Whynot.Report.Prom_text.help_of_markdown docs
      else fun _ -> None
    in
    let service =
      match
        Whynot.Serve.Service.create ?horizon ~max_partials ~shards
          ~shard_queue ~http_ingest:(not use_stdin) ~help query
      with
      | service -> service
      | exception Invalid_argument msg ->
          Printf.eprintf "whynot serve: %s\n" msg;
          exit 2
    in
    let server = Whynot.Serve.Http.listen ~backlog ~port () in
    let port = Whynot.Serve.Http.port server in
    Whynot.Serve.Service.log_start ~port;
    Printf.eprintf
      "whynot serve: listening on http://127.0.0.1:%d (metrics at /metrics)\n%!"
      port;
    let http_loop () =
      Whynot.Serve.Http.serve ~workers server
        (Whynot.Serve.Service.handle service)
    in
    if use_stdin then begin
      (* Ingest stays on this domain (HTTP ingest answers 503 in this
         mode); the HTTP loop serves scrapes from its own domain(s). *)
      let http_domain = Domain.spawn http_loop in
      let out = Buffer.create 256 in
      let rec loop lineno =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line ->
            (match
               Whynot.Serve.Service.ingest_line service ~lineno line
             with
            | Ok [] -> ()
            | Ok matches ->
                List.iter
                  (Whynot.Serve.Service.add_match out ~line:lineno)
                  matches;
                print_string (Buffer.contents out);
                flush stdout;
                Buffer.clear out
            | Error reason ->
                Printf.eprintf "whynot serve: line %d: %s\n" lineno reason);
            loop (lineno + 1)
      in
      loop 1;
      Whynot.Serve.Service.log_stop service;
      Whynot.Serve.Http.stop server;
      Domain.join http_domain
    end
    else begin
      let stop _signal =
        Whynot.Serve.Service.log_stop service;
        Whynot.Serve.Http.stop server
      in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      http_loop ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the detector as a long-lived telemetry service: Prometheus \
          /metrics, /health, /ready, and line-delimited event ingest \
          (POST /ingest or --stdin) with JSONL match verdicts.")
    Term.(
      const run $ obs_term $ query_arg $ port_arg $ horizon_arg
      $ max_partials_arg $ workers_arg $ shards_arg
      $ shard_queue_arg $ backlog_arg $ stdin_arg $ log_level_arg
      $ slow_threshold_arg $ slow_capacity_arg $ access_log_arg)

(* --- convert --- *)

let convert_cmd =
  let in_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT"
         ~doc:"Input trace (.csv or .xes, by extension).")
  in
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT"
         ~doc:"Output trace (.csv or .xes, by extension).")
  in
  let run () input output =
    let load path =
      if Filename.check_suffix path ".xes" then
        match Whynot.Events.Xes.read_file path with
        | Ok (trace, dropped) ->
            if dropped > 0 then
              Printf.eprintf "note: dropped %d repeated event(s) within traces\n" dropped;
            trace
        | Error msg ->
            Printf.eprintf "error reading %s: %s\n" path msg;
            exit 2
      else load_trace path
    in
    let trace = load input in
    if Filename.check_suffix output ".xes" then
      Whynot.Events.Xes.write_file output trace
    else Whynot.Events.Csv_io.write_trace output trace;
    Format.printf "wrote %d tuple(s) to %s@." (Trace.cardinal trace) output
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert traces between the CSV interchange format and XES \
             (IEEE 1849 process-mining event logs).")
    Term.(const run $ obs_term $ in_arg $ out_arg)

(* --- generate --- *)

let generate_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("flight", `Flight); ("rtfm", `Rtfm) ])) None
      & info [] ~docv:"KIND" ~doc:"Dataset kind: $(b,flight) or $(b,rtfm).")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"CSV" ~doc:"Output trace file.")
  in
  let tuples_arg =
    Arg.(value & opt int 100 & info [ "n"; "tuples" ] ~doc:"Number of tuples.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed.") in
  let rate_arg =
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~doc:"Fault injection rate.")
  in
  let distance_arg =
    Arg.(value & opt int 200 & info [ "fault-distance" ] ~doc:"Fault distance.")
  in
  let run () kind out tuples seed rate distance =
    let prng = Whynot.Numeric.Prng.create seed in
    let trace, query =
      match kind with
      | `Flight ->
          let { Whynot.Datagen.Flight.pattern; observed; _ } =
            Whynot.Datagen.Flight.generate prng ~num_events:4 ~days:tuples
          in
          (observed, [ pattern ])
      | `Rtfm ->
          let clean = Whynot.Datagen.Rtfm.generate prng ~tuples in
          (clean, Whynot.Datagen.Rtfm.patterns)
    in
    let trace =
      if rate > 0.0 then Whynot.Datagen.Faults.trace prng ~rate ~distance trace
      else trace
    in
    Whynot.Events.Csv_io.write_trace out trace;
    Format.printf "wrote %d tuples to %s@." (Trace.cardinal trace) out;
    Format.printf "query: %a@."
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Ast.pp)
      query
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic benchmark trace (CSV).")
    Term.(
      const run $ obs_term $ kind_arg $ out_arg $ tuples_arg $ seed_arg $ rate_arg
      $ distance_arg)

let main =
  let doc = "Why-not explanations for event pattern queries (SIGMOD 2021)" in
  Cmd.group (Cmd.info "whynot" ~version:"1.0.0" ~doc)
    [
      parse_cmd;
      check_cmd;
      lint_cmd;
      match_cmd;
      explain_cmd;
      diagnose_cmd;
      why_cmd;
      fix_query_cmd;
      detect_cmd;
      serve_cmd;
      convert_cmd;
      generate_cmd;
    ]

let () = exit (Cmd.eval main)
