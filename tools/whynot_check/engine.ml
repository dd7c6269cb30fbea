(* Driver: parse every .ml under the roots with compiler-libs, run the
   per-file rule passes, then the whole-tree interprocedural lock analysis
   ({!Locks}), resolve inline suppressions / stale suppressions / the
   baseline, and aggregate the cross-file metrics-doc check. *)

module Json = Whynot.Report.Json

type metric_site = {
  m_name : string;
  m_kind : string;
      (* registrar name ("counter", "span", ...) or "trace"/"log"/
         "catalog" for names with no exposition-format series *)
  m_file : string;
  m_loc : Location.t;
}

type file_result = {
  diags : Diag.t list;
  metrics : metric_site list;
}

type result = {
  findings : Diag.t list;  (** after suppressions and baseline, sorted *)
  suppressed : Diag.t list;  (** dropped by an inline (* check: *) comment *)
  baselined : Diag.t list;  (** dropped by a baseline entry *)
  stale_baseline : Baseline.entry list;
  errors : string list;  (** IO / parse failures — infrastructure, not findings *)
  files_scanned : int;
  files_analyzed : int;  (** files that parsed and went through the rules *)
  timings : (string * float) list;
      (** wall-time (seconds) per rule pass; the four lock rules run fused
          as one interprocedural pass, reported under "lock-discipline" *)
  lock_pairs : (string * string * string) list;
      (** observed acquisition pairs (outer, inner, path) — the raw
          evidence behind lock-order, exposed for reports and tests *)
}

(* one parsed compilation unit, carried across both analysis phases so the
   lock diags resolve against the same suppression table (which also
   tracks per-comment usage for stale-suppression) *)
type parsed = {
  u_file : string;
  u_structure : Parsetree.structure;
  u_suppress : Suppress.t;
  mutable u_diags : Diag.t list;
  mutable u_suppressed : Diag.t list;
  mutable u_metrics : metric_site list;
}

let parse_unit ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  match Parse.implementation lexbuf with
  (* check: swallow - parse failure becomes an infrastructure error (exit 2) *)
  | exception exn ->
      let msg =
        match exn with
        | Syntaxerr.Error _ -> "syntax error"
        | exn -> Printexc.to_string exn
      in
      Error (Printf.sprintf "%s: cannot parse: %s" filename msg)
  | structure ->
      Ok
        {
          u_file = filename;
          u_structure = structure;
          u_suppress = Suppress.scan source;
          u_diags = [];
          u_suppressed = [];
          u_metrics = [];
        }

(* run the per-file syntactic rules on one parsed unit *)
let run_file_rules ~config ~time u =
  let raw = ref [] and suppressed = ref [] and metrics = ref [] in
  let add ~rule loc message =
    let d =
      Diag.of_location ~file:u.u_file ~rule ~severity:Diag.Error ~message loc
    in
    if Suppress.suppresses u.u_suppress ~line:d.Diag.line ~rule then
      suppressed := d :: !suppressed
    else raw := d :: !raw
  in
  let add_metric ~kind name loc =
    metrics :=
      { m_name = name; m_kind = kind; m_file = u.u_file; m_loc = loc }
      :: !metrics
  in
  let ctx = { Rules.file = u.u_file; config; add; add_metric } in
  Rules.check ~time ctx u.u_structure;
  u.u_diags <- List.rev !raw;
  u.u_suppressed <- List.rev !suppressed;
  u.u_metrics <- List.rev !metrics

(* Parse and check one compilation unit given as source text — the
   per-file syntactic rules only (the interprocedural lock rules need the
   whole tree; see [analyze_sources]). Returns raw findings (suppressions
   already applied — they are per-line properties of the source) and the
   metric registration sites for aggregation. *)
let check_source ~config ~filename source =
  match parse_unit ~filename source with
  | Error msg -> Error msg
  | Ok u ->
      run_file_rules ~config ~time:(fun _ f -> f ()) u;
      Ok ({ diags = u.u_diags; metrics = u.u_metrics }, u.u_suppressed)

(* The metrics-doc aggregation: every registered metric / trace / log name
   must appear (as a substring, same as the runtime @metrics-lint) in the
   docs catalog — and for metrics with a Prometheus exposition form, so
   must the exposition name(s) {!Report.Prom_text} derives, keeping the
   /metrics surface documented end to end. [docs = None] means the catalog
   could not be read — reported as an infrastructure error by the caller,
   not here. *)
let required_doc_names m =
  let mangled = Whynot.Report.Prom_text.mangle m.m_name in
  match m.m_kind with
  | "counter" | "gauge" | "histogram" -> [ m.m_name; mangled ]
  | "span" ->
      [ m.m_name; mangled ^ Whynot.Report.Prom_text.span_suffix ]
  | _ -> [ m.m_name ]

let missing_metric_diags ~docs metrics =
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  metrics
  |> List.concat_map (fun m ->
         if String.starts_with ~prefix:"test." m.m_name then []
         else
           required_doc_names m
           |> List.filter (fun name -> not (contains docs name))
           |> List.map (fun name ->
                  let derived =
                    if String.equal name m.m_name then ""
                    else Printf.sprintf " (exposition name of %S)" m.m_name
                  in
                  Diag.of_location ~file:m.m_file ~rule:"metrics-doc"
                    ~severity:Diag.Error
                    ~message:
                      (Printf.sprintf
                         "metric/trace/log name %S%s is not documented in \
                          the observability catalog — add it to \
                          docs/OBSERVABILITY.md"
                         name derived)
                    m.m_loc))

let list_ml_files roots =
  let files = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | true ->
        Sys.readdir path |> Array.to_list |> List.sort String.compare
        |> List.iter (fun entry ->
               if not (String.starts_with ~prefix:"." entry || entry = "_build")
               then walk (Filename.concat path entry))
    | false -> if Filename.check_suffix path ".ml" then files := path :: !files
    | exception Sys_error _ -> ()
  in
  List.iter walk roots;
  List.rev !files

(* The full pipeline over already-read sources. [docs = None] skips the
   metrics-doc aggregation (used by fixture tests); [run] below resolves
   the docs catalog from the config and reports read failures. *)
let analyze_read ~config ?docs ~errors ~files_scanned sources =
  let errors = ref (List.rev errors) in
  let timings : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let time rule f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt timings rule) in
    Hashtbl.replace timings rule (prev +. dt)
  in
  let units =
    List.filter_map
      (fun (filename, source) ->
        match parse_unit ~filename source with
        | Ok u -> Some u
        | Error msg ->
            errors := msg :: !errors;
            None)
      sources
  in
  List.iter (fun u -> run_file_rules ~config ~time u) units;
  (* second phase: the interprocedural lock analysis over the whole tree,
     with its findings resolved against the same per-file suppression
     tables *)
  let lock_suppressed = ref [] and lock_kept = ref [] and lock_pairs = ref [] in
  (if Config.lock_analysis_enabled config then
     time "lock-discipline" (fun () ->
         let structures = List.map (fun u -> (u.u_file, u.u_structure)) units in
         let diags, facts = Locks.analyze ~config structures in
         lock_pairs :=
           List.map (fun f -> (f.Locks.p_outer, f.Locks.p_inner, f.Locks.p_path)) facts;
         let table_for file =
           List.find_opt (fun u -> String.equal u.u_file file) units
         in
         List.iter
           (fun (d : Diag.t) ->
             match table_for d.Diag.file with
             | Some u
               when Suppress.suppresses u.u_suppress ~line:d.Diag.line
                      ~rule:d.Diag.rule ->
                 lock_suppressed := d :: !lock_suppressed
             | _ -> lock_kept := d :: !lock_kept)
           diags));
  (* stale suppressions: every inline comment must have matched something
     above; gated on its rule id so restricted --rules runs (which see
     only a subset of findings) do not mis-flag live comments *)
  let stale_suppression_diags =
    if Config.enabled config "stale-suppression" then
      List.concat_map
        (fun u ->
          Suppress.stale u.u_suppress
          |> List.map (fun (c : Suppress.comment) ->
                 {
                   Diag.file = u.u_file;
                   line = c.Suppress.c_line;
                   col = 0;
                   rule = "stale-suppression";
                   severity = Diag.Error;
                   message =
                     Printf.sprintf
                       "stale suppression (* check: %s *) — it no longer \
                        suppresses any finding; remove the comment"
                       (String.concat ", " c.Suppress.c_tokens);
                 }))
        units
    else []
  in
  let metric_diags =
    match docs with
    | Some docs when Config.enabled config "metrics-doc" ->
        missing_metric_diags ~docs (List.concat_map (fun u -> u.u_metrics) units)
    | _ -> []
  in
  let diags =
    List.concat_map (fun u -> u.u_diags) units
    @ !lock_kept @ stale_suppression_diags @ metric_diags
  in
  let suppressed =
    List.concat_map (fun u -> u.u_suppressed) units @ !lock_suppressed
  in
  ( diags,
    suppressed,
    List.rev !errors,
    files_scanned,
    List.length units,
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) timings []),
    !lock_pairs )

let finish ~baseline
    (diags, suppressed, errors, files_scanned, files_analyzed, timings, lock_pairs) =
  let findings, baselined, stale_baseline = Baseline.apply baseline diags in
  {
    findings = List.sort Diag.compare findings;
    suppressed = List.sort Diag.compare suppressed;
    baselined = List.sort Diag.compare baselined;
    stale_baseline;
    errors;
    files_scanned;
    files_analyzed;
    timings;
    lock_pairs;
  }

(* In-memory entry point used by the fixture tests: a list of
   (filename, source) pairs runs through the full pipeline, including the
   interprocedural lock phase and stale-suppression detection. *)
let analyze_sources ~config ?(baseline = Baseline.empty) ?docs sources =
  finish ~baseline
    (analyze_read ~config ?docs ~errors:[] ~files_scanned:(List.length sources)
       sources)

let run ~config ?(baseline = Baseline.empty) ?docs roots =
  let files = list_ml_files roots in
  let errors = ref [] in
  let docs_text =
    match docs with
    | Some text -> Some text
    | None -> (
        match In_channel.with_open_text config.Config.docs_path In_channel.input_all with
        | text -> Some text
        | exception Sys_error msg ->
            if Config.enabled config "metrics-doc" then
              errors := ("metrics-doc: cannot read docs catalog: " ^ msg) :: !errors;
            None)
  in
  let sources =
    List.filter_map
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error msg ->
            errors := msg :: !errors;
            None
        | source -> Some (path, source))
      files
  in
  finish ~baseline
    (analyze_read ~config ?docs:docs_text ~errors:(List.rev !errors)
       ~files_scanned:(List.length files) sources)

(* Exit-code gating: 0 clean, 1 findings, 2 infrastructure (IO/parse). *)
let gate r =
  if r.errors <> [] then 2
  else if List.exists (fun d -> d.Diag.severity = Diag.Error) r.findings then 1
  else 0

let summary_json r =
  let count rule =
    List.length (List.filter (fun d -> d.Diag.rule = rule) r.findings)
  in
  Json.Obj
    [
      ("version", Json.Int 2);
      ("files_scanned", Json.Int r.files_scanned);
      ("files_analyzed", Json.Int r.files_analyzed);
      ("findings", Json.List (List.map Diag.to_json r.findings));
      ("suppressed", Json.List (List.map Diag.to_json r.suppressed));
      ("baselined", Json.List (List.map Diag.to_json r.baselined));
      ( "stale_baseline",
        Json.List
          (List.map
             (fun (e : Baseline.entry) ->
               Json.Obj
                 [
                   ("file", Json.String e.file);
                   ("rule", Json.String e.rule);
                   ( "line",
                     match e.line with Some l -> Json.Int l | None -> Json.Null );
                   ("reason", Json.String e.reason);
                 ])
             r.stale_baseline) );
      ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
      ( "timings_ms",
        Json.Obj
          (List.map (fun (rule, s) -> (rule, Json.Float (s *. 1000.))) r.timings)
      );
      ( "lock_pairs",
        Json.List
          (List.map
             (fun (outer, inner, path) ->
               Json.Obj
                 [
                   ("outer", Json.String outer);
                   ("inner", Json.String inner);
                   ("path", Json.String path);
                 ])
             r.lock_pairs) );
      ( "summary",
        Json.Obj
          (List.map (fun rule -> (rule, Json.Int (count rule))) Config.all_rules)
      );
      ("exit_code", Json.Int (gate r));
    ]
