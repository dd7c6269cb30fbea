type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Runs of bytes that need no escape are copied whole: [s.[from] ..
   s.[i - 1]] is such a run. *)
let flush buf s from i =
  if i > from then Buffer.add_substring buf s from (i - from)

let rec escape_from buf s from i =
  if i = String.length s then flush buf s from i
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\n' | '\r' | '\t') as c ->
        flush buf s from i;
        Buffer.add_string buf
          (match c with
          | '"' -> "\\\""
          | '\\' -> "\\\\"
          | '\n' -> "\\n"
          | '\r' -> "\\r"
          | _ -> "\\t");
        escape_from buf s (i + 1) (i + 1)
    | c when Char.code c < 0x20 ->
        flush buf s from i;
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c));
        escape_from buf s (i + 1) (i + 1)
    | _ -> escape_from buf s from (i + 1)

let escape buf s =
  Buffer.add_char buf '"';
  escape_from buf s 0 0;
  Buffer.add_char buf '"'

let add_string = escape

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let to_string ?(indent = 0) v =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) item)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            escape buf k;
            Buffer.add_char buf ':';
            if indent > 0 then Buffer.add_char buf ' ';
            go (depth + 1) item)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

exception Bad of int * string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let peek_is c = !pos < n && Char.equal input.[!pos] c in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek_is c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad unicode escape";
              let hex = String.sub input !pos 4 in
              pos := !pos + 4;
              let code = int_of_string ("0x" ^ hex) in
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek_is ']' then (advance (); List [])
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek_is '}' then (advance (); Obj [])
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Bad (pos, msg) -> Error (Printf.sprintf "at offset %d: %s" pos msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_float = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
