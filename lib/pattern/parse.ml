type token =
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Int of int
  | Ident of string
  | Kw_seq
  | Kw_and
  | Kw_repeat
  | Kw_atleast
  | Kw_within
  | Eof

let pp_token ppf = function
  | Lparen -> Format.fprintf ppf "'('"
  | Rparen -> Format.fprintf ppf "')'"
  | Comma -> Format.fprintf ppf "','"
  | Semicolon -> Format.fprintf ppf "';'"
  | Int n -> Format.fprintf ppf "number %d" n
  | Ident s -> Format.fprintf ppf "identifier %S" s
  | Kw_seq -> Format.fprintf ppf "SEQ"
  | Kw_and -> Format.fprintf ppf "AND"
  | Kw_repeat -> Format.fprintf ppf "REPEAT"
  | Kw_atleast -> Format.fprintf ppf "ATLEAST"
  | Kw_within -> Format.fprintf ppf "WITHIN"
  | Eof -> Format.fprintf ppf "end of input"

exception Parse_error of int * string

let fail pos fmt = Format.kasprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

(* 1-based line/column of a byte offset, for messages on multi-line input. *)
let line_col input pos =
  let limit = min pos (String.length input) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to limit - 1 do
    if input.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, limit - !bol + 1)

let error_message input pos msg =
  let line, col = line_col input pos in
  Printf.sprintf "parse error at line %d, column %d (offset %d): %s" line col pos
    msg

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.' || c = '-'

let is_digit c = c >= '0' && c <= '9'

let keyword_of s =
  match String.uppercase_ascii s with
  | "SEQ" -> Some Kw_seq
  | "AND" -> Some Kw_and
  | "REPEAT" -> Some Kw_repeat
  | "ATLEAST" -> Some Kw_atleast
  | "WITHIN" -> Some Kw_within
  | _ -> None

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let push tok pos = tokens := (tok, pos) :: !tokens in
  while !i < n do
    let c = input.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (push Lparen pos; incr i)
    else if c = ')' then (push Rparen pos; incr i)
    else if c = ',' then (push Comma pos; incr i)
    else if c = ';' then (push Semicolon pos; incr i)
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit input.[!j] do incr j done;
      let digits = String.sub input !i (!j - !i) in
      (match int_of_string_opt digits with
      | Some v -> push (Int v) pos
      | None -> fail pos "integer literal out of range: %s" digits);
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char input.[!j] do incr j done;
      let word = String.sub input !i (!j - !i) in
      (match keyword_of word with
      | Some kw -> push kw pos
      | None -> push (Ident word) pos);
      i := !j
    end
    else fail pos "unexpected character %C" c
  done;
  push Eof n;
  Array.of_list (List.rev !tokens)

type state = {
  tokens : (token * int) array;
  mutable cursor : int;
  mutable groups : int; (* REPEAT nodes seen so far, for alias numbering *)
}

let peek st = fst st.tokens.(st.cursor)
let pos st = snd st.tokens.(st.cursor)
let advance st = st.cursor <- st.cursor + 1

let expect st tok =
  if peek st = tok then advance st
  else fail (pos st) "expected %a but found %a" pp_token tok pp_token (peek st)

let unit_factor = function
  | "m" | "min" | "mins" | "minute" | "minutes" -> Some 1
  | "h" | "hour" | "hours" -> Some 60
  | "d" | "day" | "days" -> Some 1440
  | _ -> None

let parse_duration st =
  match peek st with
  | Int v ->
      let at = pos st in
      advance st;
      (match peek st with
      | Ident u -> (
          match unit_factor (String.lowercase_ascii u) with
          | Some f -> (
              advance st;
              match Numeric.Checked.mul v f with
              | d -> d
              | exception Numeric.Checked.Overflow ->
                  fail at "duration out of range: %d %s" v u)
          | None -> v)
      | _ -> v)
  | tok -> fail (pos st) "expected a duration but found %a" pp_token tok

let parse_window st =
  let atleast = ref None and within = ref None in
  let rec loop () =
    match peek st with
    | Kw_atleast ->
        if !atleast <> None then fail (pos st) "duplicate ATLEAST";
        advance st;
        atleast := Some (parse_duration st);
        loop ()
    | Kw_within ->
        if !within <> None then fail (pos st) "duplicate WITHIN";
        advance st;
        within := Some (parse_duration st);
        loop ()
    | _ -> ()
  in
  loop ();
  { Ast.atleast = !atleast; within = !within }

let rec parse_pattern st =
  match peek st with
  | Ident e ->
      advance st;
      Ast.Event e
  | Kw_repeat ->
      (* REPEAT(E, k): bounded Kleene sugar — k sequential copies of the
         event type E, as alias events E#g_1 .. E#g_k (see
         {!Events.Event.repeat_alias}). *)
      advance st;
      let open_pos = pos st in
      expect st Lparen;
      let base =
        match peek st with
        | Ident e ->
            advance st;
            e
        | tok -> fail (pos st) "REPEAT needs an event type, found %a" pp_token tok
      in
      expect st Comma;
      let count =
        match peek st with
        | Int k when k >= 1 ->
            advance st;
            k
        | Int k -> fail (pos st) "REPEAT count must be >= 1, found %d" k
        | tok -> fail (pos st) "REPEAT needs a count, found %a" pp_token tok
      in
      if peek st <> Rparen then fail open_pos "expected ')' closing REPEAT";
      advance st;
      let w = parse_window st in
      st.groups <- st.groups + 1;
      let group = st.groups in
      Ast.Seq
        ( List.init count (fun i ->
              Ast.Event (Events.Event.repeat_alias ~base ~group ~index:(i + 1))),
          w )
  | Kw_seq ->
      advance st;
      let ps = parse_args st in
      let w = parse_window st in
      Ast.Seq (ps, w)
  | Kw_and ->
      advance st;
      let ps = parse_args st in
      let w = parse_window st in
      Ast.And (ps, w)
  | tok -> fail (pos st) "expected a pattern but found %a" pp_token tok

and parse_args st =
  expect st Lparen;
  let rec loop acc =
    let p = parse_pattern st in
    match peek st with
    | Comma ->
        advance st;
        loop (p :: acc)
    | Rparen ->
        advance st;
        List.rev (p :: acc)
    | tok -> fail (pos st) "expected ',' or ')' but found %a" pp_token tok
  in
  loop []

let run_validated p =
  match Ast.validate p with
  | Ok () -> Ok p
  | Error e -> Error (Format.asprintf "invalid pattern: %a" Ast.pp_error e)

let pattern input =
  match
    let st = { tokens = tokenize input; cursor = 0; groups = 0 } in
    let p = parse_pattern st in
    expect st Eof;
    p
  with
  | p -> run_validated p
  | exception Parse_error (pos, msg) -> Error (error_message input pos msg)

let pattern_exn input =
  match pattern input with Ok p -> p | Error msg -> invalid_arg msg

let pattern_set input =
  match
    let st = { tokens = tokenize input; cursor = 0; groups = 0 } in
    let rec loop acc =
      let p = parse_pattern st in
      match peek st with
      | Semicolon ->
          advance st;
          if peek st = Eof then (advance st; List.rev (p :: acc))
          else loop (p :: acc)
      | Eof ->
          advance st;
          List.rev (p :: acc)
      | tok -> fail (pos st) "expected ';' or end of input but found %a" pp_token tok
    in
    loop []
  with
  | ps ->
      List.fold_left
        (fun acc p ->
          Result.bind acc (fun acc ->
              Result.map (fun p -> p :: acc) (run_validated p)))
        (Ok []) ps
      |> Result.map List.rev
  | exception Parse_error (pos, msg) -> Error (error_message input pos msg)
