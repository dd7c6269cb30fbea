(* The rule engine: each rule is one Ast_iterator pass over a parsed
   implementation. Rules are purely syntactic (no typing environment), so
   each one is scoped to where its syntactic signal is reliable — see
   docs/STATIC_ANALYSIS.md for the catalog and the reasoning. *)

open Parsetree

type ctx = {
  file : string;  (** repo-relative, '/'-separated *)
  config : Config.t;
  add : rule:string -> Location.t -> string -> unit;
  add_metric : kind:string -> string -> Location.t -> unit;
      (** metric/trace/log-name registration sites, aggregated by the
          engine; [kind] is the registrar ("counter", "span", ...) or
          "trace"/"log"/"catalog" for names with no exposition form, and
          decides which derived exposition names the docs must carry *)
}

(* --- shared helpers --------------------------------------------------- *)

let flatten lid =
  match Longident.flatten lid with
  | parts -> parts
  | exception Misc.Fatal_error -> []

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flatten txt)
  | _ -> None

let contains_ident structure_or_expr_iter pred =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match ident_path e with
          | Some path when pred path -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  structure_or_expr_iter it;
  !found

let expr_contains_ident e pred = contains_ident (fun it -> it.expr it e) pred

let rec last = function [ x ] -> Some x | _ :: rest -> last rest | [] -> None

let ends_with path suffix =
  let n = List.length path and k = List.length suffix in
  n >= k
  && List.filteri (fun i _ -> i >= n - k) path = suffix

(* --- checked-arith ---------------------------------------------------- *)

let arith_ops = [ "+"; "-"; "*" ]

let rec small_int_literal max_lit e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> (
      match int_of_string_opt s with
      | Some v -> abs v <= max_lit
      | None -> false)
  | Pexp_constraint (e, _) -> small_int_literal max_lit e
  | _ -> false

let checked_arith ctx structure =
  if Config.under_any ctx.config.checked_arith_paths ctx.file then begin
    let max_lit = ctx.config.checked_arith_max_literal in
    let flag loc what =
      ctx.add ~rule:"checked-arith" loc
        (what
       ^ " on int in an overflow-critical module — use Numeric.Checked, a \
          saturating helper, or annotate the line with (* check: idx *) and \
          a reason")
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            match e.pexp_desc with
            | Pexp_apply
                ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
                  args ) when List.mem op arith_ops || op = "~-" ->
                (match (op, args) with
                | _, [ (_, a); (_, b) ] when List.mem op arith_ops ->
                    if
                      not (small_int_literal max_lit a || small_int_literal max_lit b)
                    then flag e.pexp_loc (Printf.sprintf "bare (%s)" op)
                | "~-", [ (_, a) ] ->
                    if not (small_int_literal max_lit a) then
                      flag e.pexp_loc "bare unary negation"
                | _ ->
                    (* over/under-applied operator: flag conservatively *)
                    flag e.pexp_loc (Printf.sprintf "bare (%s)" op));
                (* the callee ident is the operator itself: recurse into the
                   arguments only *)
                List.iter (fun (_, a) -> it.expr it a) args
            | Pexp_ident { txt = Longident.Lident op; _ }
              when List.mem op arith_ops ->
                flag e.pexp_loc
                  (Printf.sprintf "bare (%s) passed as a function" op)
            | _ -> Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it structure
  end

(* --- poly-compare ----------------------------------------------------- *)

(* A syntactically structured operand: comparing it with polymorphic (=) is
   either unsound (Map/Set payloads), allocation-happy, or clearer as a
   match. Nullary constructors (None, [], Eof) are immediate and fine. *)
let structured_literal e =
  match e.pexp_desc with
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | Pexp_tuple _ -> true
  | Pexp_record _ -> true
  | Pexp_array _ -> true
  | _ -> false

let defines_toplevel_compare structure =
  List.exists
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.exists
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = "compare"; _ } -> true
              | _ -> false)
            bindings
      | _ -> false)
    structure

let poly_compare ctx structure =
  let local_compare = defines_toplevel_compare structure in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
                [ (_, a); (_, b) ] )
            when structured_literal a || structured_literal b ->
              ctx.add ~rule:"poly-compare" e.pexp_loc
                (Printf.sprintf
                   "polymorphic (%s) against a structured value — match on \
                    the constructor or use a typed equal (Option.equal, \
                    Ast.equal, Events.Tuple.equal, ...)"
                   op)
          | Pexp_ident { txt = Longident.Lident (("==" | "!=") as op); _ } ->
              ctx.add ~rule:"poly-compare" e.pexp_loc
                (Printf.sprintf
                   "physical equality (%s) — almost never what event/pattern \
                    code means; use (=) on immediates or a typed equal"
                   op)
          | Pexp_ident { txt = Longident.Lident "compare"; _ }
            when not local_compare ->
              ctx.add ~rule:"poly-compare" e.pexp_loc
                "polymorphic compare — use a monomorphic comparator \
                 (Int.compare, String.compare, Ast.compare, ...)"
          | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Stdlib", (("compare" | "=" | "<>" | "==" | "!=") as op)); _ } ->
              ctx.add ~rule:"poly-compare" e.pexp_loc
                (Printf.sprintf
                   "Stdlib.(%s) is polymorphic — use a monomorphic \
                    comparator or typed equal"
                   op)
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure

(* --- exn-swallow ------------------------------------------------------ *)

let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_all p
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

(* A handler body that re-raises, converts to a new exception, exits, or
   records the failure to Obs/Logs is deliberate; anything else silently
   swallows whatever flew by (including asserts and Out_of_memory). *)
let handler_accounted body =
  expr_contains_ident body (fun path ->
      match last path with
      | Some
          ( "raise" | "raise_notrace" | "raise_with_backtrace" | "reraise"
          | "failwith" | "invalid_arg" | "exit" ) ->
          true
      | _ -> List.exists (fun c -> c = "Obs" || c = "Logs") path)

let exn_swallow ctx structure =
  let check_case ~kind case =
    let pat =
      match (kind, case.pc_lhs.ppat_desc) with
      | `Try, _ -> Some case.pc_lhs
      | `Match, Ppat_exception p -> Some p
      | `Match, _ -> None
    in
    match pat with
    | Some p when catch_all p && not (handler_accounted case.pc_rhs) ->
        ctx.add ~rule:"exn-swallow" case.pc_lhs.ppat_loc
          "catch-all exception handler that neither re-raises nor records \
           the failure (Obs counter / Logs) — swallowed asserts and \
           Out_of_memory corrupt silently"
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_try (_, cases) -> List.iter (check_case ~kind:`Try) cases
          | Pexp_match (_, cases) -> List.iter (check_case ~kind:`Match) cases
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure

(* --- no-stdout -------------------------------------------------------- *)

let print_fns =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes";
  ]

let no_stdout ctx structure =
  if
    Config.under_any ctx.config.no_stdout_deny ctx.file
    && not (Config.under_any ctx.config.no_stdout_allow ctx.file)
  then begin
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match ident_path e with
            | Some ([ p ] | [ "Stdlib"; p ]) when List.mem p print_fns ->
                ctx.add ~rule:"no-stdout" e.pexp_loc
                  (p
                 ^ ": stdout printing belongs to bin/ and lib/report — \
                    return a string or take a formatter/sink")
            | Some ([ "stdout" ] | [ "Stdlib"; "stdout" ]) ->
                ctx.add ~rule:"no-stdout" e.pexp_loc
                  "stdout handle used in library code — take an out_channel \
                   or a sink instead"
            | Some [ "Printf"; "printf" ] ->
                ctx.add ~rule:"no-stdout" e.pexp_loc
                  "Printf.printf prints to stdout — use sprintf into a \
                   sink, or move the printing to bin/ or lib/report"
            | Some [ "Format"; p ]
              when p = "printf" || p = "std_formatter"
                   || String.starts_with ~prefix:"print_" p ->
                ctx.add ~rule:"no-stdout" e.pexp_loc
                  ("Format." ^ p
                 ^ " targets stdout — take a formatter argument instead")
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it structure
  end

(* --- domain-safety ---------------------------------------------------- *)

let creators = [ [ "Hashtbl"; "create" ]; [ "Queue"; "create" ]; [ "Stack"; "create" ]; [ "Buffer"; "create" ] ]

let mutators =
  [
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Buffer", [ "add_string"; "add_char"; "add_bytes"; "clear"; "reset" ]);
  ]

let rec binding_body e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> binding_body e
  | _ -> e

let domain_safety ctx structure =
  let spawns =
    contains_ident
      (fun it -> it.structure it structure)
      (fun path -> ends_with path [ "Domain"; "spawn" ])
  in
  let is_root = spawns || List.mem ctx.file ctx.config.domain_roots in
  if is_root then begin
    (* module-level mutable containers: refs and Hashtbl/Queue/... values *)
    let toplevel_mutables =
      List.concat_map
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, bindings) ->
              List.filter_map
                (fun vb ->
                  match (vb.pvb_pat.ppat_desc, (binding_body vb.pvb_expr).pexp_desc) with
                  | Ppat_var { txt; _ }, Pexp_apply (f, _) -> (
                      match ident_path f with
                      | Some [ "ref" ] | Some [ "Stdlib"; "ref" ] -> Some txt
                      | Some path when List.mem path creators -> Some txt
                      | _ -> None)
                  | _ -> None)
                bindings
          | _ -> [])
        structure
    in
    let is_toplevel_mutable e =
      match ident_path e with
      | Some [ name ] -> List.mem name toplevel_mutables
      | _ -> false
    in
    let flag loc name =
      ctx.add ~rule:"domain-safety" loc
        (Printf.sprintf
           "module-level mutable %s mutated in a Domain-parallel module — \
            use Atomic, or do the access under a Mutex taken in the same \
            binding"
           name)
    in
    let check_item item =
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              (* An item that takes a Mutex manages its own exclusion; its
                 accesses are deliberate. *)
              let locks =
                expr_contains_ident vb.pvb_expr (fun path ->
                    ends_with path [ "Mutex"; "lock" ])
              in
              if not locks then begin
                let it =
                  {
                    Ast_iterator.default_iterator with
                    expr =
                      (fun it e ->
                        (match e.pexp_desc with
                        | Pexp_apply
                            ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
                              (_, target) :: _ )
                          when is_toplevel_mutable target ->
                            flag e.pexp_loc "ref"
                        | Pexp_apply
                            ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("incr" | "decr"); _ }; _ },
                              [ (_, target) ] )
                          when is_toplevel_mutable target ->
                            flag e.pexp_loc "ref"
                        | Pexp_apply (f, (_, target) :: _)
                          when is_toplevel_mutable target -> (
                            match ident_path f with
                            | Some [ m; fn ]
                              when List.exists
                                     (fun (m', fns) -> m = m' && List.mem fn fns)
                                     mutators ->
                                flag e.pexp_loc (m ^ " value")
                            | _ -> ())
                        | _ -> ());
                        Ast_iterator.default_iterator.expr it e);
                  }
                in
                it.expr it vb.pvb_expr
              end)
            bindings
      | _ -> ()
    in
    List.iter check_item structure
  end

(* --- metrics-doc ------------------------------------------------------ *)

let metric_registrars =
  [
    "counter";
    "gauge";
    "histogram";
    "span";
    "with_trace";
    "with_capture";
    "emit";
  ]

(* [Obs.Trace.*] names trace events / spans and [Obs.Log.emit] names log
   events — neither has an exposition-format series, so they collapse to
   the raw-only kinds "trace"/"log". Everything else keeps its
   registrar name; the engine derives the exposition names the docs must
   also carry (see [Engine.required_doc_names]). *)
let metric_kind path fn =
  if List.mem "Trace" path then "trace"
  else if List.mem "Log" path then "log"
  else if String.equal fn "with_trace" then "trace"
  else fn

let metrics_doc ctx structure =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match ident_path f with
              | Some path
                when List.mem "Obs" path
                     && (match last path with
                        | Some fn -> List.mem fn metric_registrars
                        | None -> false) ->
                  let fn = Option.value ~default:"" (last path) in
                  let kind = metric_kind path fn in
                  let latency_histogram =
                    (* [Obs.span ~buckets] also registers a derived
                       [<name>.duration_us] histogram; its names must be
                       documented like any other histogram. *)
                    String.equal kind "span"
                    && List.exists
                         (fun (lbl, _) ->
                           match lbl with
                           | Asttypes.Labelled "buckets"
                           | Asttypes.Optional "buckets" ->
                               true
                           | _ -> false)
                         args
                  in
                  List.iter
                    (fun (lbl, arg) ->
                      match (lbl, arg.pexp_desc) with
                      | ( Asttypes.Nolabel,
                          Pexp_constant (Pconst_string (name, _, _)) ) ->
                          ctx.add_metric ~kind name arg.pexp_loc;
                          if latency_histogram then
                            ctx.add_metric ~kind:"histogram"
                              (name ^ ".duration_us") arg.pexp_loc
                      | _ -> ())
                    args
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it item ->
          (match item.pstr_desc with
          | Pstr_value (_, bindings) ->
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = ("kind_names" | "event_names"); _ } ->
                      (* the Obs.Trace event-kind and Obs.Log event-type
                         catalogs: literal string lists; every member must
                         be documented too (raw names only) *)
                      let rec strings e =
                        match e.pexp_desc with
                        | Pexp_construct
                            ( { txt = Longident.Lident "::"; _ },
                              Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ) ->
                            (match hd.pexp_desc with
                            | Pexp_constant (Pconst_string (s, _, _)) ->
                                ctx.add_metric ~kind:"catalog" s hd.pexp_loc
                            | _ -> ());
                            strings tl
                        | _ -> ()
                      in
                      strings vb.pvb_expr
                  | _ -> ())
                bindings
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it item);
    }
  in
  it.structure it structure

(* --- entry point ------------------------------------------------------ *)

(* The per-file syntactic passes, in execution order. The interprocedural
   lock rules live in {!Locks} and run as a whole-tree second phase in the
   engine, not here. *)
let passes =
  [
    ("checked-arith", checked_arith);
    ("poly-compare", poly_compare);
    ("exn-swallow", exn_swallow);
    ("no-stdout", no_stdout);
    ("domain-safety", domain_safety);
    ("metrics-doc", metrics_doc);
  ]

let check ?(time = fun _rule f -> f ()) ctx structure =
  List.iter
    (fun (rule, f) ->
      if Config.enabled ctx.config rule then time rule (fun () -> f ctx structure))
    passes
