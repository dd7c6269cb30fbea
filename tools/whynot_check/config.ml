(* Rule configuration. The checked-in tools/whynot_check/config.json is the
   source of truth for the repo; [default] mirrors it so the engine is usable
   (and testable) without any file. *)

module Json = Whynot.Report.Json

(* The rule catalog: id plus the one-line description that --list-rules and
   docs/STATIC_ANALYSIS.md show. The four lock-* rules plus
   condition-discipline run as one fused interprocedural pass (see
   {!Locks}); the rest are per-file syntactic passes. *)
let rule_table =
  [
    ( "domain-safety",
      "module-level mutable state in Domain-parallel modules must be Atomic \
       or mutated under a Mutex taken in the same binding" );
    ( "checked-arith",
      "bare int arithmetic in overflow-critical modules must use \
       Numeric.Checked, a saturating helper, or an annotated reason" );
    ( "poly-compare",
      "no polymorphic (=)/compare on structured values and no physical \
       equality — use typed comparators" );
    ( "exn-swallow",
      "catch-all exception handlers must re-raise or record the failure \
       (Obs/Logs)" );
    ( "no-stdout",
      "library code must not print to stdout — return a string or take a \
       formatter/sink" );
    ( "metrics-doc",
      "every registered metric/trace/log name (and its exposition form) \
       must appear in the observability catalog" );
    ( "lock-balance",
      "every Mutex.lock is released on all paths, including exceptional \
       ones (Fun.protect / match-exception / straight-line unlock)" );
    ( "lock-order",
      "nested lock acquisitions follow the single global order pinned in \
       config.json (lock_order); conflicting pairs are deadlock findings" );
    ( "blocking-under-lock",
      "no Unix I/O, Domain.join, Thread.delay or Shard.submit while \
       holding a mutex; Condition.wait on the held mutex is the only \
       sanctioned blocking point" );
    ( "condition-discipline",
      "each condition variable pairs with exactly one mutex; wait holds \
       that mutex and sits in a while loop" );
    ( "stale-suppression",
      "every inline (* check: *) comment must still suppress a live \
       finding — stale ones are findings themselves" );
  ]

let all_rules = List.map fst rule_table

let describe rule =
  match List.assoc_opt rule rule_table with Some d -> d | None -> ""

(* The fused interprocedural pass ({!Locks}) runs iff any of these is on. *)
let lock_rules =
  [ "lock-balance"; "lock-order"; "blocking-under-lock"; "condition-discipline" ]

type t = {
  rules : string list;  (** enabled rule ids *)
  domain_roots : string list;
      (** files treated as Domain-parallel even without a [Domain.spawn]
          call of their own (shared-state modules used from spawned code) *)
  checked_arith_paths : string list;
      (** directories whose int arithmetic must be checked/annotated *)
  checked_arith_max_literal : int;
      (** [e + k] with a literal |k| <= this is exempt (index arithmetic) *)
  no_stdout_deny : string list;  (** directories where stdout is banned... *)
  no_stdout_allow : string list;  (** ...minus these carve-outs *)
  docs_path : string;  (** metric-name catalog for metrics-doc *)
  lock_order : string list;
      (** the single global acquisition order, outermost first; a lock
          class is "<file-basename>.<mutex identifier>" *)
  lock_multi_acquire : string list;
      (** lock classes where acquiring several instances of the same class
          in one batch is sanctioned (e.g. shard locks taken in ascending
          index order) *)
}

let default =
  {
    rules = all_rules;
    domain_roots =
      [
        "lib/obs.ml";
        "lib/serve/http.ml";
        "lib/serve/shard.ml";
        "lib/serve/service.ml";
        "bench/serve_load.ml";
        "bin/whynot_cli.ml";
      ];
    checked_arith_paths =
      [
        "lib/tcn"; "lib/lp"; "lib/cep/plan.ml"; "lib/cep/compile.ml";
        "lib/numeric/rat.ml";
      ];
    checked_arith_max_literal = 64;
    no_stdout_deny = [ "lib" ];
    no_stdout_allow = [ "lib/report" ];
    docs_path = "docs/OBSERVABILITY.md";
    lock_order =
      [
        "http.cm"; "shard.sm"; "obs.rt_lock"; "obs.ring_lock"; "obs.lock";
      ];
    lock_multi_acquire = [];
  }

let enabled t rule = List.mem rule t.rules

let lock_analysis_enabled t = List.exists (enabled t) lock_rules

let string_list ?(default = []) name json =
  match Json.member name json with
  | Some (Json.List items) ->
      List.filter_map Json.to_string_opt items
  | _ -> default

let of_json json =
  let d = default in
  {
    rules = string_list ~default:d.rules "rules" json;
    domain_roots = string_list ~default:d.domain_roots "domain_roots" json;
    checked_arith_paths =
      string_list ~default:d.checked_arith_paths "checked_arith_paths" json;
    checked_arith_max_literal =
      (match Json.member "checked_arith_max_literal" json with
      | Some v -> Option.value ~default:d.checked_arith_max_literal (Json.to_int v)
      | None -> d.checked_arith_max_literal);
    no_stdout_deny = string_list ~default:d.no_stdout_deny "no_stdout_deny" json;
    no_stdout_allow =
      string_list ~default:d.no_stdout_allow "no_stdout_allow" json;
    docs_path =
      (match Json.member "docs_path" json with
      | Some v -> Option.value ~default:d.docs_path (Json.to_string_opt v)
      | None -> d.docs_path);
    lock_order = string_list ~default:d.lock_order "lock_order" json;
    lock_multi_acquire =
      string_list ~default:d.lock_multi_acquire "lock_multi_acquire" json;
  }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Json.of_string text with
      | Ok json -> Ok (of_json json)
      | Error msg -> Error (path ^ ": " ^ msg))

(* [file] is repo-relative with '/' separators. *)
let under dir file =
  file = dir || String.starts_with ~prefix:(dir ^ "/") file

let under_any dirs file = List.exists (fun d -> under d file) dirs
