(* Interprocedural lock-discipline analysis.

   Two phases over the untyped ASTs of every file in the run:

   1. a fixpoint computes a per-function *lock summary* — which lock
      classes the function acquires (transitively), whether it may block
      (Unix I/O, Domain.join, Thread.delay, Condition.wait), and whether it
      may raise — over a module-local + cross-file call graph resolved
      syntactically (module name = capitalized file basename);

   2. an emission walk threads the *held-lock set* through every function
      body and enforces four rules on top of the summaries:

      - lock-balance: every Mutex.lock is released on all paths, including
        exceptional ones (Fun.protect ~finally, match-exception handlers
        and straight-line unlock are the accepted shapes);
      - lock-order: nested acquisitions must follow the single global
        order pinned in config.json ([lock_order]); any pair acquired in
        conflicting orders anywhere in the call graph is a deadlock
        finding naming both acquisition paths;
      - blocking-under-lock: no blocking call while holding a mutex, with
        Condition.wait on the held mutex as the sole sanctioned blocking
        point;
      - condition-discipline: each condition variable pairs with exactly
        one mutex, wait holds that mutex and sits in a while loop.

   A lock *class* is "<file basename>.<last identifier of the mutex
   expression>" (e.g. [shard.sm], [http.cm]): the analysis is untyped, so
   distinct instances of one class are identified. Classes listed in
   [lock_multi_acquire] may batch-acquire several instances at once (e.g.
   in ascending index order); everything else acquiring its own class
   twice is a self-deadlock finding.

   Known over-approximations (see docs/STATIC_ANALYSIS.md): lambda
   arguments are walked inline at the call site; a raise caught by an
   enclosing try still marks the function as may-raise; stdlib calls with
   no summary are assumed pure and non-blocking. *)

open Parsetree

type fact = {
  p_outer : string;  (** lock class already held *)
  p_inner : string;  (** lock class acquired while holding [p_outer] *)
  p_path : string;  (** acquisition path, e.g. "shard.submit → http.enqueue" *)
  p_file : string;
  p_loc : Location.t;
}

type summary = {
  sm_acquires : (string * string) list;  (** lock class -> example path *)
  sm_blocks : (string * string) list;  (** blocking op -> example path *)
  sm_raises : bool;
}

let empty_summary = { sm_acquires = []; sm_blocks = []; sm_raises = false }

let summary_equal a b =
  let keys l = List.sort String.compare (List.map fst l) in
  List.equal String.equal (keys a.sm_acquires) (keys b.sm_acquires)
  && List.equal String.equal (keys a.sm_blocks) (keys b.sm_blocks)
  && Bool.equal a.sm_raises b.sm_raises

type func = {
  fn_file : string;
  fn_base : string;  (** file basename without extension, e.g. "http" *)
  fn_qual : string;  (** submodule-qualified name, e.g. "Trace.with_capture" *)
  fn_display : string;  (** path segment shown in findings, e.g. "http.stop" *)
  fn_expr : expression;
}

type acc = {
  mutable a_acquires : (string * string) list;
  mutable a_blocks : (string * string) list;
  mutable a_raises : bool;
}

type env = {
  order : string list;
  multi : string list;
  enabled : string -> bool;
  file : string;
  base : string;
  display : string;  (** current function, used as the path root *)
  prefixes : string list;  (** enclosing module prefixes, innermost first *)
  scope : (string * summary) list;  (** local let-bound functions *)
  funcs : (string, func) Hashtbl.t;  (** key: "<file>:<qual>" *)
  modules : (string, string) Hashtbl.t;  (** module name -> file *)
  summaries : (string, summary) Hashtbl.t;
  acc : acc;
  emit : bool;
  add : rule:string -> Location.t -> string -> unit;
  add_fact : fact -> unit;
  waits : (string * string * string * Location.t * string) list ref;
      (** cv class, mutex class, path, loc, file *)
  signals : (string * string list * string * string * Location.t * string) list ref;
      (** cv class, held classes, signal/broadcast, path, loc, file *)
  in_while : bool;
  protected : string list;
      (** classes whose release is guaranteed by an enclosing
          Fun.protect ~finally or exception handler *)
}

(* --- small helpers ----------------------------------------------------- *)

let flatten lid =
  match Longident.flatten lid with
  | parts -> parts
  | exception Misc.Fatal_error -> []

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flatten txt)
  | _ -> None

let rec last = function [ x ] -> Some x | _ :: rest -> last rest | [] -> None

let ends_with path suffix =
  let n = List.length path and k = List.length suffix in
  n >= k && List.equal String.equal (List.filteri (fun i _ -> i >= n - k) path) suffix

let classes held = List.map fst held
let holds held cls = List.exists (fun (c, _) -> String.equal c cls) held

let count_class held cls =
  List.length (List.filter (fun (c, _) -> String.equal c cls) held)

(* remove the innermost (last) occurrence of [cls] *)
let remove_last held cls =
  let rec go = function
    | [] -> []
    | (c, l) :: rest ->
        if String.equal c cls && not (holds rest cls) then rest
        else (c, l) :: go rest
  in
  go held

let same_classes a b =
  List.equal String.equal
    (List.sort String.compare (classes a))
    (List.sort String.compare (classes b))

let names held = String.concat ", " (classes held)

let dedup l =
  List.fold_left (fun acc x -> if List.exists (String.equal x) acc then acc else x :: acc) [] l
  |> List.rev

let module_base file =
  String.lowercase_ascii (Filename.remove_extension (Filename.basename file))

(* the class of a mutex / condition-variable expression *)
let rec value_class env e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let path = flatten txt in
      match last path with
      | None -> None
      | Some n ->
          (* [Obs.lock] used from another module attributes to obs, not to
             the using module *)
          let base =
            let rec owner = function
              | [] | [ _ ] -> env.base
              | m :: rest -> (
                  match Hashtbl.find_opt env.modules m with
                  | Some f -> module_base f
                  | None -> owner rest)
            in
            owner path
          in
          Some (base ^ "." ^ n))
  | Pexp_field (_, { txt; _ }) -> (
      match last (flatten txt) with
      | Some n -> Some (env.base ^ "." ^ n)
      | None -> None)
  | Pexp_constraint (e, _) -> value_class env e
  | _ -> None

(* classes directly unlocked anywhere inside [e] — used to treat
   Fun.protect ~finally and exception handlers as release guarantees *)
let unlock_classes env e =
  let found = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, [ (_, m) ]) -> (
              match ident_path f with
              | Some p when ends_with p [ "Mutex"; "unlock" ] -> (
                  match value_class env m with
                  | Some c -> found := c :: !found
                  | None -> ())
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  dedup !found

let direct_children e =
  let acc = ref [] in
  let collect =
    { Ast_iterator.default_iterator with expr = (fun _ c -> acc := c :: !acc) }
  in
  Ast_iterator.default_iterator.expr collect e;
  List.rev !acc

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> strip e
  | _ -> e

let is_function e =
  match (strip e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* Unix calls that complete immediately — everything else under the Unix
   module counts as (potentially) blocking I/O *)
let unix_nonblocking =
  [
    "gettimeofday"; "time"; "getpid"; "getppid"; "error_message"; "getenv";
    "environment"; "getuid"; "geteuid"; "string_of_inet_addr";
  ]

let blocking_primitive path =
  if ends_with path [ "Domain"; "join" ] then Some "Domain.join"
  else if ends_with path [ "Thread"; "delay" ] then Some "Thread.delay"
  else if ends_with path [ "Shard"; "submit" ] then Some "Shard.submit"
  else
    match path with
    | [ "Unix"; fn ] | [ _; "Unix"; fn ] ->
        if List.exists (String.equal fn) unix_nonblocking then None
        else Some ("Unix." ^ fn)
    | _ -> None

let raising_primitive path =
  match path with
  | [ p ] | [ "Stdlib"; p ] -> (
      match p with
      | "raise" | "raise_notrace" | "raise_with_backtrace" | "failwith"
      | "invalid_arg" ->
          true
      | _ -> false)
  | _ -> false

let diverging_primitive path =
  raising_primitive path
  || match path with [ "exit" ] | [ "Stdlib"; "exit" ] -> true | _ -> false

(* --- summary accumulation ---------------------------------------------- *)

let acc_acquire env cls path =
  if not (List.mem_assoc cls env.acc.a_acquires) then
    env.acc.a_acquires <- (cls, path) :: env.acc.a_acquires

let acc_block env desc path =
  if not (List.mem_assoc desc env.acc.a_blocks) then
    env.acc.a_blocks <- (desc, path) :: env.acc.a_blocks

let note_raise env held loc what =
  env.acc.a_raises <- true;
  let unprot =
    List.filter (fun (c, _) -> not (List.exists (String.equal c) env.protected)) held
  in
  if env.emit && unprot <> [] then
    env.add ~rule:"lock-balance" loc
      (Printf.sprintf
         "%s while holding %s — release it on the exceptional path too \
          (Fun.protect ~finally, or a handler that unlocks)"
         what (names unprot))

(* --- call-graph resolution --------------------------------------------- *)

let summary_for env f =
  Option.value ~default:empty_summary
    (Hashtbl.find_opt env.summaries (f.fn_file ^ ":" ^ f.fn_qual))

let resolve env path =
  let joined = String.concat "." path in
  let try_file file qual =
    Option.map
      (fun f -> (f.fn_display, summary_for env f))
      (Hashtbl.find_opt env.funcs (file ^ ":" ^ qual))
  in
  let local =
    match path with
    | [ name ] ->
        Option.map (fun s -> (env.base ^ "." ^ name, s)) (List.assoc_opt name env.scope)
    | _ -> None
  in
  match local with
  | Some r -> Some r
  | None -> (
      let rec same_file = function
        | [] -> None
        | p :: rest -> (
            let qual = if String.equal p "" then joined else p ^ "." ^ joined in
            match try_file env.file qual with
            | Some r -> Some r
            | None -> same_file rest)
      in
      match same_file env.prefixes with
      | Some r -> Some r
      | None ->
          let rec cross = function
            | [] | [ _ ] -> None
            | m :: rest -> (
                match Hashtbl.find_opt env.modules m with
                | Some file -> (
                    match try_file file (String.concat "." rest) with
                    | Some r -> Some r
                    | None -> cross rest)
                | None -> cross rest)
          in
          cross path)

(* apply a callee's summary at a call site *)
let apply_summary env held loc callee s =
  List.iter
    (fun (cls, p) ->
      let path = env.display ^ " → " ^ p in
      acc_acquire env cls path;
      if env.emit then
        List.iter
          (fun (h, _) ->
            env.add_fact
              { p_outer = h; p_inner = cls; p_path = path; p_file = env.file; p_loc = loc };
            if
              String.equal h cls
              && not (List.exists (String.equal cls) env.multi)
            then
              env.add ~rule:"lock-order" loc
                (Printf.sprintf
                   "call to %s re-acquires lock class %s already held here \
                    (path: %s) — self-deadlock on the same instance"
                   callee cls path))
          held)
    s.sm_acquires;
  List.iter
    (fun (desc, p) -> acc_block env desc (env.display ^ " → " ^ p))
    s.sm_blocks;
  (if held <> [] && env.emit then
     match s.sm_blocks with
     | (desc, p) :: _ ->
         env.add ~rule:"blocking-under-lock" loc
           (Printf.sprintf
              "call to %s may block (%s) while holding %s — path: %s"
              callee desc (names held)
              (env.display ^ " → " ^ p))
     | [] -> ());
  if s.sm_raises then
    note_raise env held loc ("call to " ^ callee ^ ", which may raise")

(* --- the walker --------------------------------------------------------

   [walk env held e] threads the held-lock set (acquisition order, innermost
   last) through [e] and returns the set at the exit plus a flag saying the
   expression provably diverges (raise / exit / all branches diverge). *)

let mute env =
  {
    env with
    emit = false;
    add = (fun ~rule:_ _ _ -> ());
    add_fact = (fun _ -> ());
    waits = ref [];
    signals = ref [];
  }

let join env loc entry branches =
  let live = List.filter (fun (_, d) -> not d) branches in
  match live with
  | [] -> (entry, true)
  | (h0, _) :: rest ->
      if List.for_all (fun (h, _) -> same_classes h h0) rest then (h0, false)
      else begin
        (if env.emit then begin
           let all = List.map fst live in
           let union = dedup (List.concat_map classes all) in
           let partial =
             List.filter
               (fun c -> not (List.for_all (fun h -> holds h c) all))
               union
           in
           env.add ~rule:"lock-balance" loc
             (Printf.sprintf
                "lock %s held on some paths out of this expression but not \
                 others — release it on every path (in %s)"
                (String.concat ", " partial) env.display)
         end);
        let others = List.map fst rest in
        let inter =
          List.filter (fun (c, _) -> List.for_all (fun h -> holds h c) others) h0
        in
        (inter, false)
      end

let rec walk env held e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> walk_apply env held e.pexp_loc f args
  | Pexp_sequence (a, b) ->
      let ha, da = walk env held a in
      if da then (ha, true) else walk env ha b
  | Pexp_let (_, vbs, body) ->
      let env', held', div =
        List.fold_left
          (fun (env, held, div) vb ->
            if div then (env, held, div)
            else
              let name =
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } -> Some txt
                | _ -> None
              in
              match name with
              | Some n when is_function vb.pvb_expr ->
                  let s = local_summary env n vb.pvb_expr in
                  if env.emit then emit_local env n s vb.pvb_expr;
                  ({ env with scope = (n, s) :: env.scope }, held, false)
              | _ ->
                  let h, d = walk env held vb.pvb_expr in
                  (env, h, d))
          (env, held, false) vbs
      in
      if div then (held', true) else walk env' held' body
  | Pexp_ifthenelse (c, a, b) ->
      let hc, dc = walk env held c in
      if dc then (hc, true)
      else
        let ba = walk env hc a in
        let bb = match b with Some b -> walk env hc b | None -> (hc, false) in
        join env e.pexp_loc hc [ ba; bb ]
  | Pexp_match (scrut, cases) ->
      let exc_cases, val_cases =
        List.partition
          (fun c ->
            match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
          cases
      in
      let handler_unlocks =
        dedup (List.concat_map (fun c -> unlock_classes env c.pc_rhs) exc_cases)
      in
      let hs, ds =
        walk { env with protected = handler_unlocks @ env.protected } held scrut
      in
      let case_branch entry c =
        (match c.pc_guard with Some g -> ignore (walk env entry g) | None -> ());
        walk env entry c.pc_rhs
      in
      let val_branches = if ds then [] else List.map (case_branch hs) val_cases in
      let exc_branches = List.map (case_branch held) exc_cases in
      (match val_branches @ exc_branches with
      | [] -> (hs, ds)
      | branches -> join env e.pexp_loc held branches)
  | Pexp_try (body, cases) ->
      let handler_unlocks =
        dedup (List.concat_map (fun c -> unlock_classes env c.pc_rhs) cases)
      in
      let hb, db =
        walk { env with protected = handler_unlocks @ env.protected } held body
      in
      let handler_branches =
        List.map
          (fun c ->
            (match c.pc_guard with Some g -> ignore (walk env held g) | None -> ());
            walk env held c.pc_rhs)
          cases
      in
      join env e.pexp_loc held ((hb, db) :: handler_branches)
  | Pexp_while (cond, body) ->
      let hc, _ = walk env held cond in
      if env.emit && not (same_classes hc held) then
        env.add ~rule:"lock-balance" cond.pexp_loc
          "a while condition changes the held-lock set — the held set must \
           be loop-invariant";
      let hb, _ = walk { env with in_while = true } hc body in
      if env.emit && not (same_classes hb hc) then
        env.add ~rule:"lock-balance" e.pexp_loc
          (Printf.sprintf
             "held locks change across a loop iteration (%s vs %s) — \
              acquire and release within one iteration or outside the loop"
             (names hc) (names hb));
      (hc, false)
  | Pexp_for (_, lo, hi, _, body) ->
      let h1, _ = walk env held lo in
      let h2, _ = walk env h1 hi in
      let hb, _ = walk env h2 body in
      if env.emit && not (same_classes hb h2) then
        env.add ~rule:"lock-balance" e.pexp_loc
          "held locks change across a for-loop iteration — acquire and \
           release within one iteration or outside the loop";
      (h2, false)
  | Pexp_fun _ | Pexp_function _ ->
      (* a lambda in value position: runs later, in an unknown context —
         analyze its body from an empty held set; its lock effects still
         land in this function's summary (the closure escapes from here) *)
      walk_lambda { env with in_while = false; protected = [] } [] e |> ignore;
      (held, false)
  | Pexp_assert inner -> (
      let h, _ = walk env held inner in
      match inner.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ->
          note_raise env h e.pexp_loc "assert false";
          (h, true)
      | _ ->
          note_raise env h e.pexp_loc "a failing assert";
          (h, false))
  | Pexp_constraint (inner, _) | Pexp_newtype (_, inner) | Pexp_open (_, inner)
  | Pexp_letexception (_, inner) | Pexp_letmodule (_, _, inner) ->
      walk env held inner
  | Pexp_ident { txt; _ } ->
      if env.emit && raising_primitive (flatten txt) then ();
      (held, false)
  | _ ->
      (* generic fallback: thread the held set through the direct
         subexpressions in syntactic order *)
      List.fold_left
        (fun (h, d) child -> if d then (h, d) else walk env h child)
        (held, false) (direct_children e)

(* walk a syntactic function's body (params stripped) from an empty held
   set, checking that nothing is left locked at the fall-through exits *)
and walk_lambda env held e =
  let e = strip e in
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> walk_lambda env held body
  | Pexp_function cases ->
      let branches = List.map (fun c -> walk env held c.pc_rhs) cases in
      join env e.pexp_loc held branches
  | _ -> walk env held e

(* analyze one named function body: strip params, walk from empty, flag
   locks still held at the fall-through exit *)
and walk_fn env fexpr =
  let rec go e =
    let e = strip e in
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) -> go body
    | Pexp_function cases ->
        List.iter
          (fun c ->
            let h, d = walk env [] c.pc_rhs in
            if not d then check_leftover env h)
          cases
    | _ ->
        let h, d = walk env [] e in
        if not d then check_leftover env h
  in
  go fexpr

and check_leftover env held =
  if env.emit then
    List.iter
      (fun (cls, loc) ->
        env.add ~rule:"lock-balance" loc
          (Printf.sprintf
             "Mutex.lock of %s is not released on the fall-through path of %s"
             cls env.display))
      held

(* local let-bound functions: mini-fixpoint so recursive locals converge *)
and local_summary env name fexpr =
  let rec go prev n =
    let acc = { a_acquires = []; a_blocks = []; a_raises = false } in
    let env' = mute { env with acc; scope = (name, prev) :: env.scope } in
    walk_fn env' fexpr;
    let s =
      {
        sm_acquires = List.rev acc.a_acquires;
        sm_blocks = List.rev acc.a_blocks;
        sm_raises = acc.a_raises;
      }
    in
    if n <= 0 || summary_equal s prev then s else go s (n - 1)
  in
  go empty_summary 6

and emit_local env name s fexpr =
  let acc = { a_acquires = []; a_blocks = []; a_raises = false } in
  let env' =
    {
      env with
      acc;
      scope = (name, s) :: env.scope;
      display = env.base ^ "." ^ name;
      in_while = false;
      protected = [];
    }
  in
  walk_fn env' fexpr

and walk_apply env held loc f args =
  let cpath = Option.value ~default:[] (ident_path f) in
  match (cpath, args) with
  | [ "@@" ], [ (_, fn); (l, arg) ] -> walk_apply env held loc fn [ (l, arg) ]
  | [ "|>" ], [ (l, arg); (_, fn) ] -> walk_apply env held loc fn [ (l, arg) ]
  | ([ "ignore" ] | [ "Stdlib"; "ignore" ]), [ (_, a) ] -> walk env held a
  | p, [ (_, m) ] when ends_with p [ "Mutex"; "lock" ] -> (
      match value_class env m with
      | None -> (held, false)
      | Some cls ->
          acc_acquire env cls env.display;
          if env.emit then begin
            List.iter
              (fun (h, _) ->
                env.add_fact
                  {
                    p_outer = h;
                    p_inner = cls;
                    p_path = env.display;
                    p_file = env.file;
                    p_loc = loc;
                  })
              held;
            if holds held cls && not (List.exists (String.equal cls) env.multi)
            then
              env.add ~rule:"lock-order" loc
                (Printf.sprintf
                   "second acquisition of lock class %s while one is \
                    already held (path: %s) — self-deadlock unless the \
                    class is listed in lock_multi_acquire"
                   cls env.display)
          end;
          (held @ [ (cls, loc) ], false))
  | p, [ (_, m) ] when ends_with p [ "Mutex"; "unlock" ] -> (
      match value_class env m with
      | None -> (held, false)
      | Some cls ->
          if holds held cls then (remove_last held cls, false)
          else begin
            if env.emit then
              env.add ~rule:"lock-balance" loc
                (Printf.sprintf
                   "Mutex.unlock of %s with no matching Mutex.lock on this \
                    path (in %s)"
                   cls env.display);
            (held, false)
          end)
  | p, [ (_, cv); (_, m) ] when ends_with p [ "Condition"; "wait" ] ->
      (match (value_class env cv, value_class env m) with
      | Some cvc, Some mc ->
          acc_block env ("Condition.wait on " ^ cvc) env.display;
          if env.emit then begin
            env.waits := (cvc, mc, env.display, loc, env.file) :: !(env.waits);
            if not (holds held mc) then
              env.add ~rule:"condition-discipline" loc
                (Printf.sprintf
                   "Condition.wait on %s names mutex %s, which is not held \
                    here — wait must run with its own mutex held"
                   cvc mc);
            let other = List.filter (fun (c, _) -> not (String.equal c mc)) held in
            if other <> [] then
              env.add ~rule:"blocking-under-lock" loc
                (Printf.sprintf
                   "Condition.wait on %s blocks while also holding %s — \
                    only the mutex being waited on may be held"
                   cvc (names other));
            if not env.in_while then
              env.add ~rule:"condition-discipline" loc
                (Printf.sprintf
                   "Condition.wait on %s is not inside a while loop — \
                    spurious wakeups require re-checking the predicate"
                   cvc)
          end
      | _ -> ());
      (held, false)
  | p, [ (_, cv) ]
    when ends_with p [ "Condition"; "signal" ]
         || ends_with p [ "Condition"; "broadcast" ] ->
      (match value_class env cv with
      | Some cvc when env.emit ->
          let kind =
            if ends_with p [ "Condition"; "signal" ] then "signal" else "broadcast"
          in
          env.signals :=
            (cvc, classes held, kind, env.display, loc, env.file) :: !(env.signals)
      | _ -> ());
      (held, false)
  | p, args when ends_with p [ "Fun"; "protect" ] -> walk_protect env held args
  | [], _ ->
      (* computed callee: walk it, then the arguments *)
      let hf, df = walk env held f in
      if df then (hf, true) else walk_args env hf loc args
  | p, _ -> (
      let held, div = walk_args env held loc args in
      if div then (held, true)
      else
        match resolve env p with
        | Some (display, s) ->
            apply_summary env held loc display s;
            (held, false)
        | None -> (
            match blocking_primitive p with
            | Some desc ->
                acc_block env desc env.display;
                if env.emit && held <> [] then
                  env.add ~rule:"blocking-under-lock" loc
                    (Printf.sprintf "%s while holding %s (in %s)" desc
                       (names held) env.display);
                (held, false)
            | None ->
                if raising_primitive p then
                  note_raise env held loc
                    ("call to " ^ String.concat "." p ^ ", which raises");
                (held, diverging_primitive p)))

(* Fun.protect ~finally:(fun () -> ...) (fun () -> body): classes the
   finally releases are protected inside the body — a raise there still
   unlocks them *)
and walk_protect env held args =
  let finally =
    List.find_map
      (fun (lbl, a) ->
        match lbl with
        | Asttypes.Labelled "finally" -> Some a
        | _ -> None)
      args
  in
  let thunk =
    List.find_map
      (fun (lbl, a) -> match lbl with Asttypes.Nolabel -> Some a | _ -> None)
      args
  in
  let fin_unlocks =
    match finally with Some f -> unlock_classes env f | None -> []
  in
  let h1, d1 =
    match thunk with
    | Some t when is_function t ->
        walk_lambda
          { env with protected = fin_unlocks @ env.protected; in_while = false }
          held t
    | Some t -> walk { env with protected = fin_unlocks @ env.protected } held t
    | None -> (held, false)
  in
  let h2, d2 =
    match finally with
    | Some f when is_function f -> walk_lambda { env with in_while = false } h1 f
    | Some f -> walk env h1 f
    | None -> (h1, false)
  in
  (h2, d1 || d2)

(* arguments: lambdas are walked inline against the current held set (this
   is what sees Unix.shutdown inside Hashtbl.iter under a lock, and the
   batch List.iter (fun s -> Mutex.lock s.sm) admission); idents naming
   known functions or blocking primitives count as calls *)
and walk_args env held loc args =
  List.fold_left
    (fun (held, div) (lbl, a) ->
      if div then (held, div)
      else
        let a' = strip a in
        match a'.pexp_desc with
        | Pexp_fun _ | Pexp_function _ ->
            let before = held in
            let after, _ =
              walk_lambda { env with in_while = false } held a'
            in
            let net =
              dedup
                (List.filter
                   (fun c -> count_class after c > count_class before c)
                   (classes after))
            in
            List.iter
              (fun cls ->
                if env.emit then begin
                  env.add_fact
                    {
                      p_outer = cls;
                      p_inner = cls;
                      p_path = env.display;
                      p_file = env.file;
                      p_loc = a.pexp_loc;
                    };
                  if not (List.exists (String.equal cls) env.multi) then
                    env.add ~rule:"lock-order" a.pexp_loc
                      (Printf.sprintf
                         "a function argument acquires lock class %s and \
                          leaves it held (batch acquisition, in %s) — \
                          sanctioned only for classes in lock_multi_acquire \
                          with a documented intra-class order"
                         cls env.display)
                end)
              net;
            (after, false)
        | Pexp_ident { txt; _ } -> (
            let p = flatten txt in
            match resolve env p with
            | Some (display, s) ->
                apply_summary env held a.pexp_loc display s;
                (held, false)
            | None -> (
                match blocking_primitive p with
                | Some desc ->
                    acc_block env desc env.display;
                    if env.emit && held <> [] && not (String.equal desc "Shard.submit")
                    then
                      env.add ~rule:"blocking-under-lock" a.pexp_loc
                        (Printf.sprintf
                           "%s (passed as a function argument) may run while \
                            holding %s (in %s)"
                           desc (names held) env.display);
                    (held, false)
                | None -> (held, false)))
        | _ ->
            let _ = lbl in
            let h, d = walk env held a in
            let _ = loc in
            (h, d))
    (held, false) args

(* --- collection --------------------------------------------------------

   Harvest every module-level syntactic function (including ones nested in
   submodules, qualified "Sub.name") plus the non-function bindings, whose
   right-hand sides run at module initialization. *)

let collect ~file ~base structure funcs func_list inits =
  let add_func qual name expr =
    let f =
      {
        fn_file = file;
        fn_base = base;
        fn_qual = qual;
        fn_display = base ^ "." ^ name;
        fn_expr = expr;
      }
    in
    Hashtbl.replace funcs (file ^ ":" ^ qual) f;
    func_list := f :: !func_list
  in
  let rec items prefix str =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } when is_function vb.pvb_expr ->
                    let qual =
                      if String.equal prefix "" then txt else prefix ^ "." ^ txt
                    in
                    add_func qual txt vb.pvb_expr
                | _ -> inits := (file, base, prefix, vb.pvb_expr) :: !inits)
              vbs
        | Pstr_eval (e, _) -> inits := (file, base, prefix, e) :: !inits
        | Pstr_module mb -> sub prefix mb
        | Pstr_recmodule mbs -> List.iter (sub prefix) mbs
        | _ -> ())
      str
  and sub prefix mb =
    match mb.pmb_name.txt with
    | Some mname ->
        let prefix' =
          if String.equal prefix "" then mname else prefix ^ "." ^ mname
        in
        mod_expr prefix' mb.pmb_expr
    | None -> ()
  and mod_expr prefix me =
    match me.pmod_desc with
    | Pmod_structure str -> items prefix str
    | Pmod_constraint (me, _) -> mod_expr prefix me
    | _ -> ()
  in
  items "" structure

let prefixes_of qual =
  let comps = String.split_on_char '.' qual in
  let rec mods = function [] | [ _ ] -> [] | x :: r -> x :: mods r in
  let mods = mods comps in
  let rec build acc sofar = function
    | [] -> acc
    | m :: rest ->
        let sofar = if String.equal sofar "" then m else sofar ^ "." ^ m in
        build (sofar :: acc) sofar rest
  in
  build [ "" ] "" mods

(* --- entry point -------------------------------------------------------- *)

let analyze ~(config : Config.t) units =
  let diags = ref [] and facts = ref [] in
  let waits = ref [] and signals = ref [] in
  let modules = Hashtbl.create 64 in
  let funcs = Hashtbl.create 256 in
  let summaries = Hashtbl.create 256 in
  let func_list = ref [] and inits = ref [] in
  let enabled = Config.enabled config in
  let add file ~rule loc message =
    if enabled rule then
      diags :=
        Diag.of_location ~file ~rule ~severity:Diag.Error ~message loc :: !diags
  in
  List.iter
    (fun (file, structure) ->
      let base = module_base file in
      let m = String.capitalize_ascii base in
      if not (Hashtbl.mem modules m) then Hashtbl.add modules m file;
      collect ~file ~base structure funcs func_list inits)
    units;
  let func_list = List.rev !func_list and inits = List.rev !inits in
  let env_for ~emit ~file ~base ~display ~prefixes =
    {
      order = config.Config.lock_order;
      multi = config.Config.lock_multi_acquire;
      enabled;
      file;
      base;
      display;
      prefixes;
      scope = [];
      funcs;
      modules;
      summaries;
      acc = { a_acquires = []; a_blocks = []; a_raises = false };
      emit;
      add = (if emit then add file else fun ~rule:_ _ _ -> ());
      add_fact = (if emit then fun f -> facts := f :: !facts else fun _ -> ());
      waits = (if emit then waits else ref []);
      signals = (if emit then signals else ref []);
      in_while = false;
      protected = [];
    }
  in
  let env_of ~emit f =
    env_for ~emit ~file:f.fn_file ~base:f.fn_base ~display:f.fn_display
      ~prefixes:(prefixes_of f.fn_qual)
  in
  (* phase 1: summary fixpoint (monotone from bottom, so a bounded number
     of rounds converges; the cap is a belt against pathologies) *)
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 20 do
    changed := false;
    incr rounds;
    List.iter
      (fun f ->
        let env = env_of ~emit:false f in
        walk_fn env f.fn_expr;
        let s =
          {
            sm_acquires = List.rev env.acc.a_acquires;
            sm_blocks = List.rev env.acc.a_blocks;
            sm_raises = env.acc.a_raises;
          }
        in
        let key = f.fn_file ^ ":" ^ f.fn_qual in
        let old =
          Option.value ~default:empty_summary (Hashtbl.find_opt summaries key)
        in
        if not (summary_equal s old) then begin
          Hashtbl.replace summaries key s;
          changed := true
        end)
      func_list
  done;
  (* phase 2: emission *)
  List.iter (fun f -> walk_fn (env_of ~emit:true f) f.fn_expr) func_list;
  List.iter
    (fun (file, base, prefix, e) ->
      let env =
        env_for ~emit:true ~file ~base ~display:(base ^ ".<init>")
          ~prefixes:(prefixes_of (if String.equal prefix "" then "x" else prefix ^ ".x"))
      in
      let held, d = walk env [] e in
      if not d then check_leftover env held)
    inits;
  (* global checks over the collected facts *)
  let facts = List.rev !facts in
  (if enabled "lock-order" then begin
     let directed = Hashtbl.create 32 in
     List.iter
       (fun f ->
         let k = f.p_outer ^ "|" ^ f.p_inner in
         if not (Hashtbl.mem directed k) then Hashtbl.add directed k f)
       facts;
     let rank cls =
       let rec go i = function
         | [] -> None
         | c :: rest -> if String.equal c cls then Some i else go (i + 1) rest
       in
       go 0 config.Config.lock_order
     in
     let reported = Hashtbl.create 8 in
     Hashtbl.iter
       (fun _ f ->
         let a = f.p_outer and b = f.p_inner in
         if not (String.equal a b) then
           match Hashtbl.find_opt directed (b ^ "|" ^ a) with
           | Some g ->
               let key =
                 if String.compare a b <= 0 then a ^ "|" ^ b else b ^ "|" ^ a
               in
               if not (Hashtbl.mem reported key) then begin
                 Hashtbl.add reported key ();
                 add f.p_file ~rule:"lock-order" f.p_loc
                   (Printf.sprintf
                      "locks %s and %s are acquired in conflicting orders: \
                       %s then %s via %s, but %s then %s via %s — deadlock; \
                       follow the pinned lock_order in config.json"
                      a b a b f.p_path b a g.p_path)
               end
           | None -> (
               match (rank a, rank b) with
               | Some ra, Some rb ->
                   if ra > rb then
                     add f.p_file ~rule:"lock-order" f.p_loc
                       (Printf.sprintf
                          "acquires %s while holding %s, violating the \
                           pinned global lock order in config.json (path: %s)"
                          b a f.p_path)
               | _ ->
                   add f.p_file ~rule:"lock-order" f.p_loc
                     (Printf.sprintf
                        "acquisition pair %s → %s (path: %s) is not covered \
                         by lock_order in config.json — extend the pinned \
                         order"
                        a b f.p_path)))
       directed
   end);
  (if enabled "condition-discipline" then begin
     let assoc = Hashtbl.create 8 in
     List.iter
       (fun (cvc, mc, _path, loc, file) ->
         match Hashtbl.find_opt assoc cvc with
         | None -> Hashtbl.add assoc cvc mc
         | Some m0 when not (String.equal m0 mc) ->
             add file ~rule:"condition-discipline" loc
               (Printf.sprintf
                  "condition %s is waited on under two different mutexes \
                   (%s here, %s elsewhere) — a condition variable must be \
                   associated with exactly one mutex"
                  cvc mc m0)
         | Some _ -> ())
       (List.rev !waits);
     List.iter
       (fun (cvc, held, kind, path, loc, file) ->
         match Hashtbl.find_opt assoc cvc with
         | Some m when not (List.exists (String.equal m) held) ->
             add file ~rule:"condition-discipline" loc
               (Printf.sprintf
                  "Condition.%s on %s without holding its associated mutex \
                   %s (in %s) — signal under the mutex or the waiter can \
                   miss the wakeup"
                  kind cvc m path)
         | _ -> ())
       (List.rev !signals)
   end);
  (List.rev !diags, facts)
