type outcome =
  | Already_answer
  | Inconsistent_query of Consistency.report
  | Modify_timestamps of Modification.result
  | Modify_query of Query_repair.t
  | No_explanation

let pp_outcome ppf = function
  | Already_answer -> Format.fprintf ppf "the tuple already matches the query"
  | Inconsistent_query r ->
      Format.fprintf ppf
        "the query is inconsistent (no tuple can match; %d binding(s) checked)"
        r.Consistency.bindings_checked
  | Modify_timestamps r ->
      Format.fprintf ppf "modify timestamps at cost %d, giving %a"
        r.Modification.cost Events.Tuple.pp r.Modification.repaired
  | Modify_query r ->
      Format.fprintf ppf "relax the query windows (total %d): %a" r.Query_repair.cost
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Query_repair.pp_window_change)
        r.Query_repair.changes
  | No_explanation -> Format.fprintf ppf "no plausible explanation found"

let outcome_counter =
  let already = Obs.counter "pipeline.outcome.already_answer"
  and inconsistent = Obs.counter "pipeline.outcome.inconsistent_query"
  and timestamps = Obs.counter "pipeline.outcome.modify_timestamps"
  and query = Obs.counter "pipeline.outcome.modify_query"
  and none = Obs.counter "pipeline.outcome.no_explanation" in
  function
  | Already_answer -> already
  | Inconsistent_query _ -> inconsistent
  | Modify_timestamps _ -> timestamps
  | Modify_query _ -> query
  | No_explanation -> none

let explains_c = Obs.counter "pipeline.explains"

(* End-to-end explain latencies in microseconds: sub-millisecond for the
   typical query, with room for branch-and-bound blowups. *)
let explain_s =
  Obs.span
    ~buckets:[| 100; 250; 500; 1000; 2500; 5000; 10000; 50000; 250000 |]
    "pipeline.explain"

type prepared = {
  patterns : Pattern.Ast.t list;
  consistency : Consistency.report Lazy.t;
  modification : Modification.prepared Lazy.t;
}

(* Each stage is forced where [explain_inner] first needs it, so the first
   call on a fresh value does the work, bumps the counters and emits the
   trace events of an uncached call, in the same order. *)
let prepare patterns =
  {
    patterns;
    consistency =
      lazy (Consistency.check ~strategy:Consistency.Pruned patterns);
    modification = lazy (Modification.prepare patterns);
  }

let explain_inner ?strategy ?solver ?max_cost p tuple =
  let patterns = p.patterns in
  if Pattern.Matcher.matches_set tuple patterns then Already_answer
  else
    (* Step 2 of Figure 3: pattern consistency first — no data explanation
       exists for an unsatisfiable query. *)
    let consistency = Lazy.force p.consistency in
    if not consistency.Consistency.consistent then Inconsistent_query consistency
    else
      let modification =
        Modification.explain_prepared ?strategy ?solver
          (Lazy.force p.modification) tuple
      in
      let within_budget cost =
        match max_cost with None -> true | Some budget -> cost <= budget
      in
      match modification with
      | Some r when within_budget r.Modification.cost -> Modify_timestamps r
      | Some _ | None -> (
          match max_cost with
          | None -> (
              (* no budget given: a found repair is the answer; otherwise the
                 chosen strategy missed every feasible binding *)
              match modification with
              | Some r -> Modify_timestamps r
              | None -> No_explanation)
          | Some _ -> (
              match Query_repair.explain patterns [ tuple ] with
              | Ok qr -> Modify_query qr
              | Error _ -> No_explanation))

let explain_prepared ?strategy ?solver ?max_cost p tuple =
  Obs.incr explains_c;
  let outcome =
    (* The pipeline is the outermost layer, so this is usually the call
       that starts the per-query trace; nested instrumented layers
       attach to it as child spans. Timed outside the trace scope, so
       the trace root is its only [pipeline.explain] span. *)
    Obs.time explain_s (fun () ->
        Obs.Trace.with_trace "pipeline.explain" (fun () ->
            explain_inner ?strategy ?solver ?max_cost p tuple))
  in
  Obs.incr (outcome_counter outcome);
  outcome

let capacity = 8
let prepares_c = Obs.counter "pipeline.prepares"

(* Most recently used first; one list per domain, so a prepared value is
   only ever forced by the domain that made it. *)
let recent : prepared list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cached patterns =
  let recent = Domain.DLS.get recent in
  let hit, rest =
    (* check: poly-compare - the key is the pattern-set value itself; callers pass one value per query *)
    List.partition (fun p -> p.patterns == patterns) !recent
  in
  let p =
    match hit with
    | p :: _ -> p
    | [] ->
        Obs.incr prepares_c;
        prepare patterns
  in
  recent := p :: List.filteri (fun i _ -> i < capacity - 1) rest;
  p

let explain ?strategy ?solver ?max_cost patterns tuple =
  explain_prepared ?strategy ?solver ?max_cost (cached patterns) tuple
