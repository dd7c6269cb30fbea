module C = Numeric.Checked

type error = { line : int; reason : string }
type keyed = { instance : Cep.Detector.instance; key : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.reason
let header = "event,timestamp,tag"
let keyed_header = "event,timestamp,tag,key"

(* --- one line, scanned in place --- *)

(* Field [k] of the last line scanned is [src.[pos.(k)] ..
   src.[stop.(k) - 1]]; an absent field is empty. [src] is the scanned
   string itself, or for a line that went through the CSV reader
   ([quoted]) its fields laid end to end. *)
type fields = {
  mutable src : string;
  mutable quoted : bool;
  mutable timestamp : int;
  pos : int array;
  stop : int array;
}

let fields () =
  {
    src = "";
    quoted = false;
    timestamp = 0;
    pos = Array.make 4 0;
    stop = Array.make 4 0;
  }

let f_event = 0
let f_timestamp = 1
let f_tag = 2
let f_key = 3

let clear f =
  for k = 0 to 3 do
    f.pos.(k) <- 0;
    f.stop.(k) <- 0
  done

type scan = Skip | Event | Bad of string

(* The constant verdicts, so a rejected line allocates nothing either. *)
let bad_shape = Bad "expected event,timestamp[,tag[,key]]"
let bad_timestamp = Bad "bad timestamp"
let empty_event = Bad "empty event name"

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_space s i stop =
  if i < stop && is_space (String.unsafe_get s i) then skip_space s (i + 1) stop
  else i

let rec back_space s lo i =
  if i > lo && is_space (String.unsafe_get s (i - 1)) then back_space s lo (i - 1)
  else i

(* Is [s.[i] .. s.[hi - 1]] exactly [word.[k] ..]? *)
let rec range_is s i hi word k =
  if i = hi then k = String.length word
  else
    k < String.length word
    && Char.equal (String.unsafe_get s i) (String.unsafe_get word k)
    && range_is s (i + 1) hi word (k + 1)

(* Field [k] is [s.[lo] .. s.[hi - 1]], trimmed as [String.trim] would. *)
let set_field f k lo hi =
  let lo = skip_space f.src lo hi in
  f.pos.(k) <- lo;
  f.stop.(k) <- back_space f.src lo hi

(* A line with a quote (or, in a string given to [parse_line], a
   newline) goes through the CSV reader, the one implementation of
   quoting; its fields are laid end to end in a string of their own. *)
let scan_quoted f s lo hi =
  match Events.Csv_io.split_line (String.sub s lo (C.sub hi lo)) with
  | Error reason -> Bad reason
  | Ok vs ->
      let n = List.length vs in
      if n < 2 || n > 4 then bad_shape
      else begin
        f.src <- String.concat "" vs;
        f.quoted <- true;
        clear f;
        ignore
          (List.fold_left
             (fun k v ->
               let at = if k = 0 then 0 else f.stop.(k - 1) in
               f.pos.(k) <- at;
               f.stop.(k) <- C.add at (String.length v);
               k + 1)
             0 vs);
        Event
      end

(* Split the trimmed line [lo, hi) of [f.src] on its commas: field [k]
   began at [start]. [Event] when the shape fits, the verdict otherwise. *)
let rec split f lo hi i start k =
  if i = hi then
    if k < 1 || k > 3 then bad_shape
    else begin
      set_field f k start hi;
      Event
    end
  else
    match String.unsafe_get f.src i with
    | '"' | '\n' -> scan_quoted f f.src lo hi
    | ',' ->
        if k < 4 then set_field f k start i;
        split f lo hi (i + 1) (i + 1) (k + 1)
    | _ -> split f lo hi (i + 1) start k

(* Plain decimal digits, at most 18 of them, are read here: 10^18 <
   [max_int], so [acc * 10] stays in range. Every other form (signs,
   bases, underscores, longer numbers) is [int_of_string_opt]'s. *)
let rec digits s i hi acc n =
  if i = hi then if n > 0 && n <= 18 then acc else raise_notrace Exit
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c when n < 18 ->
        digits s (i + 1) hi (C.add (acc * 10) (Char.code c - 48)) (n + 1)
    | _ -> raise_notrace Exit

(* Sets [f.timestamp]; false when the field is no integer. *)
let read_timestamp f lo hi =
  match digits f.src lo hi 0 0 with
  | v ->
      f.timestamp <- v;
      true
  | exception Exit -> (
      match int_of_string_opt (String.sub f.src lo (C.sub hi lo)) with
      | Some v ->
          f.timestamp <- v;
          true
      | None -> false)

let scan f s ~pos ~stop =
  let lo = skip_space s pos stop in
  let hi = back_space s lo stop in
  if lo = hi then Skip
    (* The header is skipped wherever it appears, not just on line 1: the
       serve ingest counts lines across requests, so a client re-sending
       its header in a second POST /ingest would otherwise be rejected
       with a spurious "bad timestamp". Nothing is lost — as a data line
       it could never parse ("timestamp" is not an integer). *)
  else if range_is s lo hi header 0 || range_is s lo hi keyed_header 0 then
    Skip
  else begin
    f.src <- s;
    f.quoted <- false;
    clear f;
    match split f lo hi lo lo 0 with
    | (Skip | Bad _) as verdict -> verdict
    | Event ->
        (* a quoted timestamp is verbatim: trim it as the rest were *)
        let stop = f.stop.(f_timestamp) in
        let tlo = skip_space f.src f.pos.(f_timestamp) stop in
        if not (read_timestamp f tlo (back_space f.src tlo stop)) then
          bad_timestamp
        else if f.pos.(f_event) = f.stop.(f_event) then empty_event
        else Event
  end

let sub s pos stop = if pos = stop then "" else String.sub s pos (C.sub stop pos)
let field f k = sub f.src f.pos.(k) f.stop.(k)

let default_tag lineno = "#" ^ string_of_int lineno

let tag_of f ~lineno =
  if f.pos.(f_tag) = f.stop.(f_tag) then default_tag lineno else field f f_tag

let parse_line ~lineno line =
  let f = fields () in
  match scan f line ~pos:0 ~stop:(String.length line) with
  | Skip -> Ok None
  | Bad reason -> Error { line = lineno; reason }
  | Event ->
      Ok
        (Some
           {
             instance =
               {
                 Cep.Detector.event = field f f_event;
                 timestamp = f.timestamp;
                 tag = tag_of f ~lineno;
               };
             key = field f f_key;
           })

let parse_lines lines =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match parse_line ~lineno l with
        | Error e -> Error e
        | Ok None -> go acc (lineno + 1) rest
        | Ok (Some k) -> go (k :: acc) (lineno + 1) rest)
  in
  go [] 1 lines

(* --- a request body, scanned into rows --- *)

type batch = {
  body : string;
  base : int;
  lines : int;
  rows : int array;
  events : int;
}

(* Row [i] is [rows.(8 * i) .. rows.(8 * i + 7)]: the line's kind (an
   event's type index, or [skip] / [bad]), its timestamp, the line's
   range, and the ranges of its key and tag in [body]. A key position of
   -1 marks a quoted line, whose fields are read by scanning it again. *)
let skip = -2
let bad = -3

(* Line [i], [body.[start] .. body.[stop - 1]], into its row; 1 when it
   holds an event. *)
let scan_row tpl f rows body i ~start ~stop =
  let o = i * 8 in
  rows.(o + 2) <- start;
  rows.(o + 3) <- stop;
  match scan f body ~pos:start ~stop with
  | Skip ->
      rows.(o) <- skip;
      0
  | Bad _ ->
      rows.(o) <- bad;
      0
  | Event ->
      rows.(o) <-
        Cep.Detector.type_index tpl f.src ~pos:f.pos.(f_event)
          ~stop:f.stop.(f_event);
      rows.(o + 1) <- f.timestamp;
      if f.quoted then rows.(o + 4) <- -1
      else begin
        rows.(o + 4) <- f.pos.(f_key);
        rows.(o + 5) <- f.stop.(f_key);
        rows.(o + 6) <- f.pos.(f_tag);
        rows.(o + 7) <- f.stop.(f_tag)
      end;
      1

let kind b i = b.rows.(i * 8)
let timestamp b i = b.rows.((i * 8) + 1)
let key_pos b i = b.rows.((i * 8) + 4)
let key_stop b i = b.rows.((i * 8) + 5)

(* A quoted line's fields, or a rejected line's reason: scan it again. *)
let rescan b i =
  let f = fields () in
  let verdict =
    scan f b.body ~pos:b.rows.((i * 8) + 2) ~stop:b.rows.((i * 8) + 3)
  in
  (f, verdict)

let reason b i =
  match rescan b i with _, Bad reason -> reason | _, (Skip | Event) -> ""

(* Number the lines from [reserve lines], then report the rejected ones
   in order. *)
let finish b ~reserve ~on_error =
  let b = { b with base = reserve b.lines } in
  for i = 0 to b.lines - 1 do
    if kind b i = bad then on_error ~lineno:(C.add b.base i) (reason b i)
  done;
  b

(* Each domain scans into rows of its own, kept from body to body: a
   batch of a few hundred lines would otherwise cost a fresh major-heap
   array per request. Rows for more than [kept_lines] lines are the
   request's own and go with it, so one huge body does not pin its rows
   for the life of the domain. *)
let kept_lines = 4096
let scratch = Domain.DLS.new_key (fun () -> ref (Array.make 1024 0))

let scan_body tpl body ~reserve ~on_error =
  let f = fields () in
  let n = String.length body in
  let own = Domain.DLS.get scratch in
  let rec go rows i start events =
    let rows =
      if (i * 8) + 8 <= Array.length rows then rows
      else begin
        let more = Array.make (Array.length rows * 2) 0 in
        Array.blit rows 0 more 0 (Array.length rows);
        if Array.length more <= kept_lines * 8 then own := more;
        more
      end
    in
    let stop =
      match String.index_from body start '\n' with
      | j -> j
      | exception Not_found -> n
    in
    let events = C.add events (scan_row tpl f rows body i ~start ~stop) in
    if stop = n then { body; base = 0; lines = i + 1; rows; events }
    else go rows (i + 1) (stop + 1) events
  in
  finish (go !own 0 0 0) ~reserve ~on_error

let scan_line tpl line ~lineno ~on_error =
  let rows = Array.make 8 0 in
  let events =
    scan_row tpl (fields ()) rows line 0 ~start:0 ~stop:(String.length line)
  in
  finish
    { body = line; base = 0; lines = 1; rows; events }
    ~reserve:(fun _ -> lineno) ~on_error

let key b i =
  if key_pos b i < 0 then field (fst (rescan b i)) f_key
  else sub b.body (key_pos b i) (key_stop b i)

let tag b i =
  let lineno = C.add b.base i in
  let pos = b.rows.((i * 8) + 6) and stop = b.rows.((i * 8) + 7) in
  if key_pos b i < 0 then tag_of (fst (rescan b i)) ~lineno
  else if pos = stop then default_tag lineno
  else sub b.body pos stop

let event b i = field (fst (rescan b i)) f_event
