(* Inline per-site suppressions: a [(* check: token, token - reason *)]
   comment suppresses matching findings on its own line and, when it is the
   only thing on its line, on the next line as well (annotation-above style).

   Tokens are matched against a rule id or one of its short aliases, so the
   annotation can say what the site is ([idx] for index arithmetic,
   [sentinel] for saturating sentinel sums) rather than repeat the rule
   name.

   Each comment tracks whether it ever matched a finding, so the engine can
   report stale suppressions (the inline mirror of stale baseline
   entries). *)

let aliases = function
  | "checked-arith" -> [ "idx"; "sentinel"; "arith"; "impl" ]
  | "poly-compare" -> [ "poly"; "physical-eq" ]
  | "domain-safety" -> [ "domain"; "race" ]
  | "exn-swallow" -> [ "swallow" ]
  | "no-stdout" -> [ "stdout" ]
  | "lock-balance" -> [ "lock"; "unlock" ]
  | "lock-order" -> [ "order"; "deadlock" ]
  | "blocking-under-lock" -> [ "blocking"; "syscall" ]
  | "condition-discipline" -> [ "condition"; "cv" ]
  | _ -> []

type comment = {
  c_line : int;  (** 1-based line the comment sits on *)
  c_covers : int list;  (** lines on which it suppresses findings *)
  c_tokens : string list;
  mutable c_used : bool;  (** did it ever match a finding? *)
}

type t = comment list

let marker = "(* check:"

(* The token part of an annotation body ends at the first dash with blanks
   on both sides, which starts the optional reason. A dash inside a token
   ([physical-eq], [lock-order]) is part of the token, and the reason may
   hold dashes of its own. *)
let token_part body =
  let n = String.length body in
  let blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let rec find i =
    if i >= n then body
    else if
      body.[i] = '-'
      && (i = 0 || blank body.[i - 1])
      && (i + 1 = n || blank body.[i + 1])
    then String.sub body 0 i
    else find (i + 1)
  in
  find 0

(* A lexically-aware scan: the marker only counts as a suppression when it
   opens a comment in code position — occurrences inside string literals
   (e.g. the checker's own message templates) or nested inside an ordinary
   comment (prose *about* the annotation form) are skipped. This is what
   lets the gate run over its own sources. *)
let scan source : t =
  let n = String.length source in
  let comments = ref [] in
  let line = ref 1 in
  let line_start = ref 0 in
  let newline j =
    incr line;
    line_start := j + 1
  in
  let at j s =
    j + String.length s <= n && String.sub source j (String.length s) = s
  in
  (* [j] is on the opening quote; returns the index past the closing one *)
  let skip_string j =
    let j = ref (j + 1) in
    let stop = ref false in
    while (not !stop) && !j < n do
      (match source.[!j] with
      | '\\' ->
          (* the escaped char may itself be the newline of a "\<nl>"
             line continuation — keep the line count honest *)
          if !j + 1 < n && source.[!j + 1] = '\n' then newline (!j + 1);
          incr j
      | '"' -> stop := true
      | '\n' -> newline !j
      | _ -> ());
      incr j
    done;
    !j
  in
  (* [j] is on the "(*"; skips the whole (possibly nested) comment,
     honouring string literals inside it, as the OCaml lexer does *)
  let skip_comment j =
    let depth = ref 1 in
    let j = ref (j + 2) in
    while !depth > 0 && !j < n do
      if at !j "(*" then begin
        incr depth;
        j := !j + 2
      end
      else if at !j "*)" then begin
        decr depth;
        j := !j + 2
      end
      else if source.[!j] = '"' then j := skip_string !j
      else begin
        if source.[!j] = '\n' then newline !j;
        incr j
      end
    done;
    !j
  in
  let i = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then begin
      newline !i;
      incr i
    end
    else if at !i marker then begin
      (* extract tokens up to the closing "*)" or end of the token part
         (an optional " - reason" tail is ignored) *)
      let c_line = !line and c_start = !i and c_line_start = !line_start in
      let start = !i + String.length marker in
      let close = ref start in
      while
        !close + 1 < n && not (source.[!close] = '*' && source.[!close + 1] = ')')
      do
        if source.[!close] = '\n' then newline !close;
        incr close
      done;
      let body = token_part (String.sub source start (!close - start)) in
      let tokens =
        String.split_on_char ',' body
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let only_thing_on_line =
        let rec blank j =
          j >= c_start || ((source.[j] = ' ' || source.[j] = '\t') && blank (j + 1))
        in
        blank c_line_start
      in
      let covers =
        if only_thing_on_line then [ c_line; c_line + 1 ] else [ c_line ]
      in
      comments :=
        { c_line; c_covers = covers; c_tokens = tokens; c_used = false }
        :: !comments;
      i := (if !close + 1 < n then !close + 2 else n)
    end
    else if at !i "(*" then i := skip_comment !i
    else if c = '"' then i := skip_string !i
    else if c = '\'' && !i + 2 < n && source.[!i + 1] <> '\\' && source.[!i + 2] = '\''
    then i := !i + 3 (* char literal, incl. '"' and '(' *)
    else if c = '\'' && !i + 1 < n && source.[!i + 1] = '\\' then begin
      (* escaped char literal: '\n' '\\' '\"' '\123' *)
      match String.index_from_opt source (!i + 2) '\'' with
      | Some j when j - !i <= 6 -> i := j + 1
      | _ -> incr i
    end
    else incr i
  done;
  List.rev !comments

let suppresses (t : t) ~line ~rule =
  let accepted = rule :: aliases rule in
  let hit = ref false in
  List.iter
    (fun c ->
      if
        List.mem line c.c_covers
        && List.exists (fun tok -> List.mem tok accepted) c.c_tokens
      then begin
        c.c_used <- true;
        hit := true
      end)
    t;
  !hit

(* Comments that never matched a finding — candidates for removal. Only
   meaningful after every diag of the run has been pushed through
   [suppresses]. *)
let stale (t : t) = List.filter (fun c -> not c.c_used) t
