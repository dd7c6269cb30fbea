(* Differential and fuzz tests of the ingest scanner. [Ingest_reference]
   is the line parser as it was before lines were scanned in place; the
   scanner must give the same verdict on every line, and [POST /ingest]
   the same bytes as a service built from that parser and one
   [Detector.feed] per key. Everything is drawn from fixed seeds. *)

open Whynot
module Http = Serve.Http
module Ingest = Serve.Ingest
module Service = Serve.Service
module Prng = Numeric.Prng
module Ref = Ingest_reference

let query = "SEQ(A, B) WITHIN 20"
let patterns () = [ Pattern.Parse.pattern_exn query ]
let pick prng a = a.(Prng.int prng (Array.length a))

(* --- the generator --- *)

(* Every timestamp form [int_of_string_opt] accepts or rejects: signs,
   bases, underscores, surrounding blanks, 18 to 20 digits, [max_int] and
   one past it, hex that wraps negative. *)
let timestamp_forms =
  [|
    "0"; "7"; "000123"; "+5"; "-5"; "0x1F"; "0X1f"; "-0x10"; "0o17"; "0b101";
    "0u12"; "1_000"; "_1"; "1_"; " 12 "; "\t9"; "999999999999999999";
    "1000000000000000000"; "12345678901234567890"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "0x7fffffffffffffff";
    "0x4000000000000000"; "0x8000000000000000"; ""; "abc"; "1e3"; "12a";
    "1 2"; "--1"; "0x"; "9223372036854775807"; "٣";
  |]

let blanks = [| ""; " "; "  "; "\t"; " \t " |]

let pad prng s = pick prng blanks ^ s ^ pick prng blanks

(* A field, now and then quoted (doubling its quotes). *)
let field prng s =
  if Prng.int prng 10 = 0 then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else pad prng s

let tags = [| "t1"; "x y"; "a, b"; "say \"hi\""; ""; "#"; "é" |]
let keys = [| ""; "k1"; "k2"; "k, 3"; " k1 "; "k\"4" |]

(* One line. [clock] holds each key's last timestamp, so most event lines
   stay in order and match, and some step back. *)
let line prng clock =
  let key = pick prng [| ""; "k1"; "k2"; "k3" |] in
  let ts () =
    let last = Option.value ~default:0 (Hashtbl.find_opt clock key) in
    let next =
      if Prng.int prng 10 = 0 then last - Prng.int_in prng 1 5
      else last + Prng.int_in prng 0 6
    in
    Hashtbl.replace clock key next;
    string_of_int next
  in
  let event () = pick prng [| "A"; "B"; "A"; "B"; "X"; "Y"; "AB" |] in
  let join fs = String.concat "," fs in
  match Prng.int prng 40 with
  | 0 | 1 -> pick prng blanks
  | 2 -> pad prng Ingest.header
  | 3 -> pad prng Ingest.keyed_header
  | 4 -> join [ event (); pick prng timestamp_forms ]
  | 5 -> join [ field prng (event ()); field prng (pick prng timestamp_forms); "t" ]
  | 6 -> event ()
  | 7 -> join [ event (); ts (); "t"; key; "extra" ]
  | 8 -> join [ ""; ts () ]
  | 9 -> join [ " "; ts (); "t" ]
  | 10 -> join [ event (); ts (); "\"x\"y" ]
  | 11 -> join [ event (); ts (); "\"oops" ]
  | 12 -> join [ event (); ts (); "x\"y" ]
  | 13 -> join [ "\"" ^ event () ^ "\""; ts (); "\"\"" ]
  | 14 -> join [ event (); "\" " ^ ts () ^ " \"" ]
  | 15 -> join [ event (); ts (); "t"; "\"\"" ]
  | 16 -> join [ event (); ts (); "t"; "\"q\" " ]
  | 17 -> join [ event (); ts (); "t"; "\"q\" x" ]
  | 18 -> join [ event (); ts (); ""; key ]
  | 19 -> join [ event (); ts () ] ^ ","
  | _ -> (
      let fs = [ field prng (event ()); pad prng (ts ()) ] in
      match Prng.int prng 3 with
      | 0 -> join fs
      | 1 -> join (fs @ [ field prng (pick prng tags) ])
      | _ ->
          join
            (fs
            @ [
                field prng (pick prng tags);
                (if key = "" then field prng (pick prng keys) else pad prng key);
              ]))

(* A body of lines, ending "\n" or "\r\n", with or without a final
   newline. *)
let body prng clock =
  let n = Prng.int_in prng 0 24 in
  let eol = if Prng.int prng 4 = 0 then "\r\n" else "\n" in
  let lines = List.init n (fun _ -> line prng clock) in
  String.concat eol lines ^ if Prng.bool prng then eol else ""

(* Raw bytes, drawn mostly from the grammar's alphabet. *)
let raw prng =
  let alphabet = "AB,,\"\"\n\r \t0123456789x-+_#ké" in
  String.init (Prng.int_in prng 0 120) (fun _ ->
      if Prng.int prng 20 = 0 then Char.chr (Prng.int prng 256)
      else alphabet.[Prng.int prng (String.length alphabet)])

(* --- line verdicts --- *)

let show_ref = function
  | Ok None -> "skip"
  | Ok (Some { Ref.instance = i; key }) ->
      Printf.sprintf "event %S %d %S %S" i.Cep.Detector.event i.timestamp i.tag
        key
  | Error { Ref.line; reason } -> Printf.sprintf "error %d %S" line reason

let show_new = function
  | Ok None -> "skip"
  | Ok (Some { Ingest.instance = i; key }) ->
      Printf.sprintf "event %S %d %S %S" i.Cep.Detector.event i.timestamp i.tag
        key
  | Error { Ingest.line; reason } -> Printf.sprintf "error %d %S" line reason

let same_line lineno l =
  Alcotest.(check string)
    (Printf.sprintf "line %S" l)
    (show_ref (Ref.parse_line ~lineno l))
    (show_new (Ingest.parse_line ~lineno l))

let test_lines () =
  let prng = Prng.create 24 in
  let clock = Hashtbl.create 8 in
  for i = 1 to 4000 do
    same_line i (line prng clock)
  done;
  List.iter (fun l -> same_line 3 l)
    [
      "A,1\nB,2"; "\"a\nb\",1"; "A,1\r\nB,2"; "A, 0x10 ,t"; "A,\" 0x10 \",t";
      "A , 5"; " A,5 , x , k "; "A,5,x,k,"; ",,,"; "A,5,,"; "\"\",5";
    ];
  for i = 1 to 2000 do
    same_line i (raw prng)
  done

(* --- the service against its oracle --- *)

let capture_logs f =
  let lines = ref [] in
  let old_level = Obs.Log.level () in
  Obs.Log.set_level (Some Obs.Log.Warn);
  Obs.Log.set_sink (fun l -> lines := l :: !lines);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level old_level;
      Obs.Log.reset_sink ())
    (fun () ->
      let v = f () in
      (* the time stamp is the first field: drop it *)
      ( v,
        List.rev_map
          (fun l ->
            match String.index_opt l ',' with
            | Some i -> String.sub l i (String.length l - i)
            | None -> l)
          !lines ))

let counter name = Option.value ~default:0 (Obs.find_counter name)

type oracle = {
  tpl : Cep.Detector.template;
  dets : (string, Cep.Detector.t) Hashtbl.t;
  mutable next_line : int;
}

let error_json ~line reason =
  Report.Json.to_string
    (Report.Json.Obj
       [
         ("type", Report.Json.String "error");
         ("line", Report.Json.Int line);
         ("reason", Report.Json.String reason);
       ])

(* The old POST /ingest: split on newlines, parse every line (logging the
   rejected ones), feed each event to its key's detector in input order,
   write the verdicts in input order. Returns the body and the deltas of
   serve.ingest.lines, serve.ingest.errors and serve.matches. *)
let oracle_body o body =
  let lines = String.split_on_char '\n' body in
  let base = o.next_line in
  o.next_line <- base + List.length lines;
  let parsed = List.mapi (fun i l -> Ref.parse_line ~lineno:(base + i) l) lines in
  List.iter
    (function
      | Error { Ref.line; reason } ->
          Obs.Log.emit Warn "ingest.error" [ ("line", Num line); ("reason", Str reason) ]
      | Ok _ -> ())
    parsed;
  let fed = ref 0 and errors = ref 0 and matched = ref 0 in
  let results =
    List.map
      (function
        | Ok (Some { Ref.instance; key }) -> (
            let d =
              match Hashtbl.find_opt o.dets key with
              | Some d -> d
              | None ->
                  let d = Cep.Detector.of_template o.tpl in
                  Hashtbl.add o.dets key d;
                  d
            in
            match Cep.Detector.feed d instance with
            | ms ->
                incr fed;
                matched := !matched + List.length ms;
                Some (Ok ms)
            | exception Invalid_argument reason ->
                incr errors;
                Obs.Log.emit Warn "ingest.error"
                  [
                    ("event", Str instance.event);
                    ("timestamp", Num instance.timestamp);
                    ("reason", Str reason);
                  ];
                Some (Error reason))
        | Ok None | Error _ -> None)
      parsed
  in
  let out = Buffer.create 256 in
  List.iteri
    (fun i (p, r) ->
      let line = base + i in
      match (p, r) with
      | Error { Ref.reason; _ }, _ ->
          incr errors;
          Buffer.add_string out (error_json ~line reason ^ "\n")
      | _, Some (Error reason) -> Buffer.add_string out (error_json ~line reason ^ "\n")
      | _, Some (Ok ms) ->
          List.iter
            (fun m ->
              Buffer.add_string out
                (Report.Json.to_string (Ref.match_json ~line m) ^ "\n"))
            ms
      | Ok _, None -> ())
    (List.combine parsed results);
  (Buffer.contents out, (!fed, !errors, !matched))

let post s body =
  let lines0 = counter "serve.ingest.lines"
  and errors0 = counter "serve.ingest.errors"
  and matches0 = counter "serve.matches" in
  let r =
    Service.handle s
      { Http.meth = "POST"; path = "/ingest"; headers = []; body }
  in
  ( r,
    ( counter "serve.ingest.lines" - lines0,
      counter "serve.ingest.errors" - errors0,
      counter "serve.matches" - matches0 ) )

let triple = Alcotest.(triple int int int)

(* Consecutive requests, so that line numbers and default tags carry
   across them; one shard keeps the log order, two compare it sorted. *)
let differential ~seed ~shards () =
  let prng = Prng.create seed in
  let clock = Hashtbl.create 8 in
  let s = Service.create ~shards (patterns ()) in
  let o =
    {
      (* the naive engine finds an event's targets by name, not through
         the type index the scanner resolves *)
      tpl = Cep.Detector.template ~engine:Cep.Detector.Naive (patterns ());
      dets = Hashtbl.create 8;
      next_line = 1;
    }
  in
  for k = 1 to 150 do
    let b = body prng clock in
    let (r, deltas), logs = capture_logs (fun () -> post s b) in
    let (expected, counts), expected_logs =
      capture_logs (fun () -> oracle_body o b)
    in
    let label what = Printf.sprintf "request %d %s (body %S)" k what b in
    Alcotest.(check int) (label "status") 200 r.Http.status;
    Alcotest.(check string) (label "response body") expected r.Http.body;
    Alcotest.check triple (label "lines, errors, matches") counts deltas;
    let order l = if shards = 1 then l else List.sort String.compare l in
    Alcotest.(check (list string))
      (label "ingest.error log lines") (order expected_logs) (order logs)
  done

let test_raw_bytes () =
  let prng = Prng.create 7 in
  let s = Service.create ~shards:2 (patterns ()) in
  let old_level = Obs.Log.level () in
  Obs.Log.set_level None;
  Fun.protect ~finally:(fun () -> Obs.Log.set_level old_level) (fun () ->
      for _ = 1 to 1500 do
        let b = raw prng in
        match
          Service.handle s
            { Http.meth = "POST"; path = "/ingest"; headers = []; body = b }
        with
        | r -> Alcotest.(check int) "raw bytes answer 200" 200 r.Http.status
        | exception e ->
            Alcotest.failf "body %S raised %s" b (Printexc.to_string e)
      done)

(* [Service.add_match], the verdict writer of [POST /ingest] and the
   stdin feed, against the verdict's JSON tree: names and tags that need
   escaping, empty objects, negative and large timestamps, with and
   without a request id. *)
let test_verdict_writer () =
  let strings =
    [| ""; "A"; "say \"hi\""; "back\\slash"; "tab\there"; "\001\031";
       "\127"; "é"; "\255"; "a, b" |]
  in
  let prng = Prng.create 11 in
  for _ = 1 to 500 do
    let names = List.init (Prng.int prng 4) (fun _ -> pick prng strings) in
    let m =
      {
        Cep.Detector.tuple =
          List.fold_left
            (fun t e ->
              Events.Tuple.add e
                (pick prng [| 0; -7; 42; max_int; min_int |])
                t)
            Events.Tuple.empty names;
        tags = List.map (fun e -> (e, pick prng strings)) names;
      }
    in
    let line = Prng.int_in prng 0 100_000 in
    let request_id =
      if Prng.bool prng then None else Some (pick prng strings)
    in
    let out = Buffer.create 64 in
    Service.add_match out ?request_id ~line m;
    Alcotest.(check string)
      "add_match = the JSON tree"
      (Report.Json.to_string (Ref.match_json ?request_id ~line m) ^ "\n")
      (Buffer.contents out)
  done

(* A huge body scans into rows of its own: the rows its domain keeps
   for the next body stay at most [Ingest.kept_lines] lines long. *)
let test_scratch_bounded () =
  let tpl = Cep.Detector.template (patterns ()) in
  let scan body =
    Ingest.scan_body tpl body ~reserve:(fun _ -> 1)
      ~on_error:(fun ~lineno:_ _ -> ())
  in
  let n = 4 * Ingest.kept_lines in
  let big =
    scan (String.concat "" (List.init n (fun i -> Printf.sprintf "A,%d\n" i)))
  in
  Alcotest.(check int) "the big body's lines" (n + 1) big.lines;
  Alcotest.(check int) "the big body's events" n big.events;
  Alcotest.(check int) "its last timestamp" (n - 1) (Ingest.timestamp big (n - 1));
  let small = scan "A,1\nB,2\n" in
  Alcotest.(check int) "the small body's events" 2 small.events;
  Alcotest.(check int) "its second timestamp" 2 (Ingest.timestamp small 1);
  Alcotest.(check bool)
    "the kept rows are back within the bound" true
    (Array.length small.rows <= 8 * Ingest.kept_lines)

(* A retained ingest request keeps every event its capture recorded:
   the request's spans, and per event line one detector.admit (the match
   and the horizon eviction where they happen). The events are collected
   only for a retained request, so this pins what collecting them yields. *)
let test_retained_capture () =
  Obs.Request.configure ~threshold_us:0 ~capacity:4 ();
  Obs.Request.clear_retained ();
  Fun.protect ~finally:Obs.Request.disable @@ fun () ->
  let s = Service.create (patterns ()) in
  let body = "A,1,a,k\nX,2,x,k\n\nB,5,b,k\nX,40,y,k\nA,oops\n" in
  let r =
    Obs.Request.with_scope (fun _ ->
        Service.handle s
          { Http.meth = "POST"; path = "/ingest"; headers = []; body })
  in
  Alcotest.(check int) "ingest answered" 200 r.Http.status;
  match Obs.Request.retained () with
  | [ info ] ->
      let counts = Hashtbl.create 8 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          let k =
            match e.kind with
            | Obs.Trace.Span_open { name; _ } -> "open " ^ name
            | Obs.Trace.Span_close { name } -> "close " ^ name
            | k -> Obs.Trace.kind_name k
          in
          Hashtbl.replace counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        info.r_events;
      let got =
        List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])
      in
      Alcotest.(check (list (pair string int)))
        "captured kinds and counts"
        (List.sort compare
           [
             ("open serve.request", 1); ("close serve.request", 1);
             ("open serve.ingest.parse", 1); ("close serve.ingest.parse", 1);
             ("open serve.ingest.submit", 1); ("close serve.ingest.submit", 1);
             ("open serve.shard.service", 1); ("close serve.shard.service", 1);
             ("open serve.ingest.reassemble", 1);
             ("close serve.ingest.reassemble", 1);
             ("detector.admit", 4); ("detector.match", 1);
             ("detector.evict", 1);
           ])
        got;
      Alcotest.(check int) "nothing dropped" 0 info.r_events_dropped
  | infos -> Alcotest.failf "expected one retained request, got %d" (List.length infos)

let suite =
  ( "ingest",
    [
      Alcotest.test_case "scanner = reference parser, line by line" `Quick
        test_lines;
      Alcotest.test_case "POST /ingest = reference service, 1 shard" `Quick
        (differential ~seed:5 ~shards:1);
      Alcotest.test_case "POST /ingest = reference service, 2 shards" `Quick
        (differential ~seed:11 ~shards:2);
      Alcotest.test_case "seeded raw bytes raise nothing" `Quick test_raw_bytes;
      Alcotest.test_case "the verdict writer = the JSON tree" `Quick
        test_verdict_writer;
      Alcotest.test_case "a huge body's rows are not kept" `Quick
        test_scratch_bounded;
      Alcotest.test_case "a retained request keeps its captured events" `Quick
        test_retained_capture;
    ] )
