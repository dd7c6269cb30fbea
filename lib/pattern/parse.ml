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

(* A syntax error, and a lexical one: the lexer runs on demand, and a
   lexical error anywhere in the input is the one reported (see [run]). *)
exception Parse_error of int * string
exception Lex_error of int * string

let fail pos fmt = Format.kasprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

let lex_fail pos fmt =
  Format.kasprintf (fun msg -> raise (Lex_error (pos, msg))) fmt

(* 1-based line/column of a byte offset, for messages on multi-line input. *)
let line_col input pos =
  let limit = min pos (String.length input) in
  let rec go i line bol =
    if i = limit then (line, Numeric.Checked.sub limit bol + 1)
    else if Char.equal input.[i] '\n' then go (i + 1) (line + 1) (i + 1)
    else go (i + 1) line bol
  in
  go 0 1 0

let error_message input pos msg =
  let line, col = line_col input pos in
  Printf.sprintf "parse error at line %d, column %d (offset %d): %s" line col pos
    msg

(* The lexer's position: the current token, where it starts, and where
   the one after it starts. *)
type state = {
  input : string;
  mutable tok : token;
  mutable pos : int;
  mutable next : int;
  mutable groups : int; (* REPEAT nodes seen so far, for alias numbering *)
}

(* Is [input.[i] .. input.[j - 1]] the upper-case [word], in any case?
   [k] walks [word]. *)
let rec is_word input i j word k =
  if i = j then k = String.length word
  else
    k < String.length word
    && Char.equal (Char.uppercase_ascii input.[i]) word.[k]
    && is_word input (i + 1) j word (k + 1)

(* Keywords are matched in place, so only an identifier is cut out. *)
let word input i j =
  match Numeric.Checked.sub j i with
  | 3 when is_word input i j "SEQ" 0 -> Kw_seq
  | 3 when is_word input i j "AND" 0 -> Kw_and
  | 6 when is_word input i j "REPEAT" 0 -> Kw_repeat
  | 6 when is_word input i j "WITHIN" 0 -> Kw_within
  | 7 when is_word input i j "ATLEAST" 0 -> Kw_atleast
  | n -> Ident (String.sub input i n)

let rec ident_end input i =
  if i = String.length input then i
  else
    match input.[i] with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' | '.' | '-' ->
        ident_end input (i + 1)
    | _ -> i

let rec digits_end input i =
  if i = String.length input then i
  else match input.[i] with '0' .. '9' -> digits_end input (i + 1) | _ -> i

(* Up to 18 digits are read here (10^18 < [max_int]); a longer literal,
   leading zeros and all, is [int_of_string]'s to read or refuse. *)
let rec decimal input i j acc =
  if i = j then acc
  else
    decimal input (i + 1) j
      (Numeric.Checked.add (acc * 10) (Char.code input.[i] - 48))

let number input i j =
  let n = Numeric.Checked.sub j i in
  if n <= 18 then decimal input i j 0
  else
    let digits = String.sub input i n in
    match int_of_string_opt digits with
    | Some v -> v
    | None -> lex_fail i "integer literal out of range: %s" digits

let set st tok pos next =
  st.tok <- tok;
  st.pos <- pos;
  st.next <- next

(* Read the token that starts at or after [i]. *)
let rec lex st i =
  let input = st.input in
  if i >= String.length input then set st Eof i i
  else
    match input.[i] with
    | ' ' | '\t' | '\n' | '\r' -> lex st (i + 1)
    | '(' -> set st Lparen i (i + 1)
    | ')' -> set st Rparen i (i + 1)
    | ',' -> set st Comma i (i + 1)
    | ';' -> set st Semicolon i (i + 1)
    | '0' .. '9' ->
        let j = digits_end input i in
        set st (Int (number input i j)) i j
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ident_end input i in
        set st (word input i j) i j
    | c -> lex_fail i "unexpected character %C" c

let advance st = lex st st.next

(* Constant tokens compared by constructor. *)
let same a b =
  match (a, b) with
  | Lparen, Lparen | Rparen, Rparen | Comma, Comma | Semicolon, Semicolon
  | Eof, Eof | Kw_seq, Kw_seq | Kw_and, Kw_and | Kw_repeat, Kw_repeat
  | Kw_atleast, Kw_atleast | Kw_within, Kw_within ->
      true
  | _ -> false

let expect st tok =
  if same st.tok tok then advance st
  else fail st.pos "expected %a but found %a" pp_token tok pp_token st.tok

let unit_factor = function
  | "m" | "min" | "mins" | "minute" | "minutes" -> Some 1
  | "h" | "hour" | "hours" -> Some 60
  | "d" | "day" | "days" -> Some 1440
  | _ -> None

let parse_duration st =
  match st.tok with
  | Int v -> (
      let at = st.pos in
      advance st;
      match st.tok with
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
  | tok -> fail st.pos "expected a duration but found %a" pp_token tok

let rec parse_window ?atleast ?within st =
  match st.tok with
  | Kw_atleast ->
      if Option.is_some atleast then fail st.pos "duplicate ATLEAST";
      advance st;
      let a = parse_duration st in
      parse_window ~atleast:a ?within st
  | Kw_within ->
      if Option.is_some within then fail st.pos "duplicate WITHIN";
      advance st;
      let w = parse_duration st in
      parse_window ?atleast ~within:w st
  | _ -> { Ast.atleast; within }

let rec parse_pattern st =
  match st.tok with
  | Ident e ->
      advance st;
      Ast.Event e
  | Kw_repeat ->
      (* REPEAT(E, k): bounded Kleene sugar — k sequential copies of the
         event type E, as alias events E#g_1 .. E#g_k (see
         {!Events.Event.repeat_alias}). *)
      advance st;
      let open_pos = st.pos in
      expect st Lparen;
      let base =
        match st.tok with
        | Ident e ->
            advance st;
            e
        | tok -> fail st.pos "REPEAT needs an event type, found %a" pp_token tok
      in
      expect st Comma;
      let count =
        match st.tok with
        | Int k when k >= 1 ->
            advance st;
            k
        | Int k -> fail st.pos "REPEAT count must be >= 1, found %d" k
        | tok -> fail st.pos "REPEAT needs a count, found %a" pp_token tok
      in
      (match st.tok with
      | Rparen -> advance st
      | _ -> fail open_pos "expected ')' closing REPEAT");
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
  | tok -> fail st.pos "expected a pattern but found %a" pp_token tok

and parse_args st =
  expect st Lparen;
  parse_rest st []

(* the arguments after the ones in [acc], newest first *)
and parse_rest st acc =
  let p = parse_pattern st in
  match st.tok with
  | Comma ->
      advance st;
      parse_rest st (p :: acc)
  | Rparen ->
      advance st;
      List.rev (p :: acc)
  | tok -> fail st.pos "expected ',' or ')' but found %a" pp_token tok

let rec drain st =
  match st.tok with
  | Eof -> ()
  | _ ->
      advance st;
      drain st

(* Parse [input] with [f], tokens read on demand. A syntax error is
   reported only once the rest of the input lexes cleanly: a lexical
   error anywhere wins, as it did when the input was tokenized whole
   before parsing. *)
let run input f =
  let st = { input; tok = Eof; pos = 0; next = 0; groups = 0 } in
  match
    advance st;
    f st
  with
  | v -> Ok v
  | exception Lex_error (pos, msg) -> Error (error_message input pos msg)
  | exception Parse_error (pos, msg) -> (
      match drain st with
      | () -> Error (error_message input pos msg)
      | exception Lex_error (pos, msg) -> Error (error_message input pos msg))

let invalid e = Error (Format.asprintf "invalid pattern: %a" Ast.pp_error e)

let pattern input =
  match
    run input (fun st ->
        let p = parse_pattern st in
        expect st Eof;
        p)
  with
  | Error _ as e -> e
  | Ok p -> ( match Ast.validate p with Ok () -> Ok p | Error e -> invalid e)

let pattern_exn input =
  match pattern input with Ok p -> p | Error msg -> invalid_arg msg

let pattern_set input =
  match
    run input (fun st ->
        let rec loop acc =
          let p = parse_pattern st in
          match st.tok with
          | Semicolon -> (
              advance st;
              match st.tok with Eof -> List.rev (p :: acc) | _ -> loop (p :: acc))
          | Eof -> List.rev (p :: acc)
          | tok ->
              fail st.pos "expected ';' or end of input but found %a" pp_token
                tok
        in
        loop [])
  with
  | Error _ as e -> e
  | Ok ps ->
      (* each pattern validated once, the first invalid one reported *)
      let rec first_invalid = function
        | [] -> Ok ps
        | p :: rest -> (
            match Ast.validate p with
            | Ok () -> first_invalid rest
            | Error e -> invalid e)
      in
      first_invalid ps
