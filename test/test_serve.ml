open Whynot
module Http = Serve.Http
module Ingest = Serve.Ingest
module Service = Serve.Service

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let queries s = [ Pattern.Parse.pattern_exn s ]

(* --- Ingest: the CSV line grammar shared by `detect` and `serve` --- *)

let test_ingest_lines () =
  let ok_keyed = function
    | Ok (Some (k : Ingest.keyed)) -> k
    | Ok None -> Alcotest.fail "expected an instance, got a skip"
    | Error e -> Alcotest.failf "unexpected error: %s" (Ingest.error_to_string e)
  in
  let ok_instance r = (ok_keyed r).Ingest.instance in
  let i = ok_instance (Ingest.parse_line ~lineno:2 "A,17,x1") in
  check_str "event" "A" i.Cep.Detector.event;
  check_int "timestamp" 17 i.Cep.Detector.timestamp;
  check_str "tag" "x1" i.Cep.Detector.tag;
  check_str "missing key defaults to the keyless stream" ""
    (ok_keyed (Ingest.parse_line ~lineno:2 "A,17,x1")).Ingest.key;
  let d = ok_instance (Ingest.parse_line ~lineno:5 "B,3") in
  check_str "missing tag defaults to line marker" "#5" d.Cep.Detector.tag;
  let d2 = ok_instance (Ingest.parse_line ~lineno:7 "B,3,") in
  check_str "empty tag also defaults" "#7" d2.Cep.Detector.tag;
  (* the optional fourth column is the partition key *)
  let k = ok_keyed (Ingest.parse_line ~lineno:2 "A,17,x1,acct42") in
  check_str "fourth column parses as the partition key" "acct42" k.Ingest.key;
  check_str "keyed line keeps its tag" "x1" k.Ingest.instance.Cep.Detector.tag;
  let k2 = ok_keyed (Ingest.parse_line ~lineno:3 "A,17,,acct42") in
  check_str "keyed line with empty tag still defaults the tag" "#3"
    k2.Ingest.instance.Cep.Detector.tag;
  check_str "empty key column is the keyless stream" ""
    (ok_keyed (Ingest.parse_line ~lineno:3 "A,17,x,")).Ingest.key;
  let kq = ok_keyed (Ingest.parse_line ~lineno:4 "A,17,x,\"k, comma\"") in
  check_str "quoted key keeps its comma" "k, comma" kq.Ingest.key;
  check_bool "five fields rejected" true
    (match Ingest.parse_line ~lineno:6 "A,17,x,k,extra" with
    | Error { Ingest.line = 6; _ } -> true
    | _ -> false);
  check_bool "blank line skipped" true
    (Ingest.parse_line ~lineno:4 "   " = Ok None);
  check_bool "header skipped on line 1" true
    (Ingest.parse_line ~lineno:1 Ingest.header = Ok None);
  (* the serve ingest numbers lines across requests, so the header can
     legitimately arrive on any line (a second POST re-sending it) *)
  check_bool "header skipped at any line number" true
    (Ingest.parse_line ~lineno:3 Ingest.header = Ok None);
  check_bool "keyed header skipped too" true
    (Ingest.parse_line ~lineno:1 Ingest.keyed_header = Ok None);
  (* RFC-4180 quoting: tags (and events) with commas or quotes *)
  let q = ok_instance (Ingest.parse_line ~lineno:2 "A,17,\"batch 3, retry\"") in
  check_str "quoted tag keeps its comma" "batch 3, retry" q.Cep.Detector.tag;
  let q2 = ok_instance (Ingest.parse_line ~lineno:2 "A,17,\"say \"\"hi\"\"\"") in
  check_str "doubled quotes unescape" "say \"hi\"" q2.Cep.Detector.tag;
  let q3 = ok_instance (Ingest.parse_line ~lineno:2 "\"A\",17,x") in
  check_str "quoted event name" "A" q3.Cep.Detector.event;
  check_bool "unterminated quote rejected" true
    (match Ingest.parse_line ~lineno:6 "A,17,\"oops" with
    | Error { Ingest.line = 6; reason } ->
        String.equal reason "unterminated quoted field"
    | _ -> false);
  check_bool "text after closing quote rejected" true
    (match Ingest.parse_line ~lineno:6 "A,17,\"x\"y" with
    | Error { Ingest.line = 6; _ } -> true
    | _ -> false);
  check_str "quoted tag followed by a key parses" "extra"
    (ok_keyed (Ingest.parse_line ~lineno:6 "A,17,\"x\",extra")).Ingest.key;
  check_bool "quoted tag with too many fields rejected" true
    (match Ingest.parse_line ~lineno:6 "A,17,\"x\",k,extra" with
    | Error { Ingest.line = 6; _ } -> true
    | _ -> false);
  check_bool "bad timestamp rejected" true
    (match Ingest.parse_line ~lineno:9 "A,soon" with
    | Error { Ingest.line = 9; reason } ->
        String.equal reason "bad timestamp"
    | _ -> false);
  check_bool "empty event rejected" true
    (match Ingest.parse_line ~lineno:2 ",5" with
    | Error _ -> true
    | _ -> false);
  check_str "error rendering carries the line" "line 9: bad timestamp"
    (Ingest.error_to_string { Ingest.line = 9; reason = "bad timestamp" });
  (* all-or-nothing batch parse *)
  check_bool "batch parses with header and blanks" true
    (match
       Ingest.parse_lines [ "event,timestamp,tag"; "A,1,x"; ""; "B,2" ]
     with
    | Ok [ _; _ ] -> true
    | _ -> false);
  check_bool "batch fails on first bad line" true
    (match Ingest.parse_lines [ "A,1,x"; "B,oops"; "C,3,z" ] with
    | Error { Ingest.line = 2; _ } -> true
    | _ -> false)

(* --- Service.handle: routing without a socket --- *)

let req ?(body = "") meth path = { Http.meth; path; headers = []; body }

let test_routing () =
  let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
  let r = Service.handle s (req "GET" "/health") in
  check_int "health 200" 200 r.Http.status;
  let r = Service.handle s (req "GET" "/ready") in
  check_int "ready 200 while running" 200 r.Http.status;
  let r = Service.handle s (req "GET" "/metrics") in
  check_int "metrics 200" 200 r.Http.status;
  check_str "prometheus content type" Service.prom_content_type
    r.Http.content_type;
  check_bool "exposition parses" true
    (match Report.Prom_text.parse_values r.Http.body with
    | Ok (_ :: _) -> true
    | _ -> false);
  let r = Service.handle s (req "GET" "/metrics?format=prometheus") in
  check_int "query string does not break routing" 200 r.Http.status;
  let r = Service.handle s (req "GET" "/health?x=1#frag") in
  check_int "query and fragment stripped before dispatch" 200 r.Http.status;
  let r = Service.handle s (req "GET" "/nosuch") in
  check_int "unknown path 404" 404 r.Http.status;
  let r = Service.handle s (req "POST" "/metrics") in
  check_int "wrong method 405" 405 r.Http.status;
  Service.log_stop s;
  let r = Service.handle s (req "GET" "/ready") in
  check_int "ready 503 after stop" 503 r.Http.status;
  let r = Service.handle s (req "GET" "/health") in
  check_int "health still 200 after stop" 200 r.Http.status

let test_stdin_mode_rejects_http_ingest () =
  let s = Service.create ~http_ingest:false (queries "SEQ(A, B) WITHIN 20") in
  let r = Service.handle s (req ~body:"A,1,x\n" "POST" "/ingest") in
  check_int "ingest 503 when fed from stdin" 503 r.Http.status

let test_ingest_route () =
  let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
  let r =
    Service.handle s (req ~body:"A,1,x\nB,5,y\nC,bad\n" "POST" "/ingest")
  in
  check_int "ingest answers 200 even with bad lines" 200 r.Http.status;
  check_str "jsonl content type" Service.jsonl_content_type r.Http.content_type;
  let lines =
    List.filter
      (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' r.Http.body)
  in
  check_int "one match and one error object" 2 (List.length lines);
  check_bool "match verdict serialized with its input line number" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"{\"type\":\"match\",\"line\":2" l)
       lines);
  check_bool "error carries the running line number" true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:"{\"type\":\"error\",\"line\":3" l)
       lines);
  (* line numbers persist across POSTs (the first batch consumed lines
     1-4, counting its trailing newline), but a header in a second batch
     must still be a skip, not a spurious "bad timestamp" — clients
     naturally prepend their header to every request *)
  let r2 =
    Service.handle s
      (req ~body:"event,timestamp,tag\nA,10,x2\nB,12,y2\n" "POST" "/ingest")
  in
  check_int "second batch with header still 200" 200 r2.Http.status;
  let lines2 =
    List.filter
      (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' r2.Http.body)
  in
  (* B@12 completes both the fresh A@10 and the still-live A@1, so two
     matches and, crucially, zero error objects for the header line *)
  check_bool "header in a second request is skipped, stream keeps matching"
    true
    (List.length lines2 = 2
    && List.for_all
         (String.starts_with ~prefix:"{\"type\":\"match\"")
         lines2);
  (* quoted tags survive the HTTP path end to end *)
  let r3 =
    Service.handle s
      (req ~body:"A,20,\"t, with comma\"\nB,22,z\n" "POST" "/ingest")
  in
  let lines3 =
    List.filter
      (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' r3.Http.body)
  in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "quoted tag with comma round-trips over ingest" true
    (lines3 <> []
    && List.for_all (String.starts_with ~prefix:"{\"type\":\"match\"") lines3
    && List.exists (contains ~needle:"t, with comma") lines3)

let test_ingest_line_results () =
  let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
  check_bool "pending instance yields no match" true
    (Service.ingest_line s ~lineno:1 "A,1,x" = Ok []);
  (match Service.ingest_line s ~lineno:2 "B,5,y" with
  | Ok [ m ] ->
      check_bool "completed match binds both tags" true
        (List.length m.Cep.Detector.tags = 2)
  | _ -> Alcotest.fail "expected exactly one match");
  check_bool "bare reason, no line prefix" true
    (Service.ingest_line s ~lineno:3 "A,zap" = Error "bad timestamp");
  check_bool "decreasing timestamp surfaces as an ingest error" true
    (match Service.ingest_line s ~lineno:4 "A,0,z" with
    | Error _ -> true
    | Ok _ -> false)

(* --- Http: the responder itself, loopback end-to-end --- *)

let with_server ?io_timeout ?keepalive_limit ?workers handler f =
  let server = Http.listen ~port:0 () in
  let d =
    Domain.spawn (fun () ->
        Http.serve ?io_timeout ?keepalive_limit ?workers server handler)
  in
  Fun.protect
    ~finally:(fun () ->
      Http.stop server;
      Domain.join d)
    (fun () -> f (Http.port server))

let test_http_end_to_end () =
  with_server
    (fun r ->
      if String.equal r.Http.path "/echo" then
        Http.response (r.Http.meth ^ ":" ^ r.Http.body)
      else Http.response ~status:404 "nope\n")
    (fun port ->
      (match Http.get ~port "/echo" with
      | Ok (200, body) -> check_str "GET round-trip" "GET:" body
      | other ->
          Alcotest.failf "GET failed: %s"
            (match other with
            | Ok (st, b) -> Printf.sprintf "HTTP %d %s" st b
            | Error e -> e)
      );
      (match Http.post ~port "/echo" "payload" with
      | Ok (200, body) -> check_str "POST body round-trip" "POST:payload" body
      | _ -> Alcotest.fail "POST failed");
      match Http.get ~port "/other" with
      | Ok (404, _) -> ()
      | _ -> Alcotest.fail "expected 404")

let test_http_rejects_malformed () =
  with_server
    (fun _ -> Http.response "ok")
    (fun port ->
      (* raw garbage: no request line terminator then EOF *)
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let msg = "GARBAGE\r\n\r\n" in
      ignore (Unix.write_substring s msg 0 (String.length msg));
      let buf = Bytes.create 1024 in
      let n = Unix.read s buf 0 (Bytes.length buf) in
      Unix.close s;
      let raw = Bytes.sub_string buf 0 n in
      check_bool "malformed request answered with 400" true
        (String.starts_with ~prefix:"HTTP/1.1 400" raw))

(* Raw-socket helpers: send [parts] with a short pause between them, then
   read to EOF. *)
let send_raw ~port parts =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      List.iteri
        (fun i part ->
          if i > 0 then Unix.sleepf 0.05;
          ignore (Unix.write_substring s part 0 (String.length part)))
        parts;
      let out = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read s chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes out chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents out)

(* The (status, body) responses in [raw], in order, framed by their
   Content-Length. *)
let rec split_responses raw =
  if String.equal raw "" then []
  else
    let i =
      let rec find i =
        if String.equal (String.sub raw i 4) "\r\n\r\n" then i else find (i + 1)
      in
      find 0
    in
    let lines = String.split_on_char '\n' (String.sub raw 0 i) in
    let status = int_of_string (List.nth (String.split_on_char ' ' (List.hd lines)) 1) in
    let len =
      List.find_map
        (fun l ->
          match String.split_on_char ':' (String.trim l) with
          | [ k; v ] when String.equal (String.lowercase_ascii k) "content-length" ->
              Some (int_of_string (String.trim v))
          | _ -> None)
        lines
      |> Option.get
    in
    (status, String.sub raw (i + 4) len)
    :: split_responses
         (String.sub raw (i + 4 + len) (String.length raw - i - 4 - len))

(* Content-Length is 1*DIGIT (RFC 9110 section 8.6): the other spellings
   [int_of_string] takes answer 400, as does a value past [max_int]; a
   response carrying one is an error to [Http.Client]. *)
let test_content_length_digits_only () =
  let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
  with_server ~io_timeout:1.0 (Service.handle s) (fun port ->
      let status_of cl =
        let raw =
          send_raw ~port
            [
              Printf.sprintf
                "POST /ingest HTTP/1.1\r\nHost: l\r\nContent-Length: %s\r\n\
                 Connection: close\r\n\r\nA,1,x\nB,5" cl;
            ]
        in
        match split_responses raw with
        | [ (status, _) ] -> status
        | _ -> Alcotest.failf "Content-Length %s: no single response" cl
      in
      check_int "decimal length accepted" 200 (status_of "9");
      List.iter
        (fun cl -> check_int ("Content-Length " ^ cl) 400 (status_of cl))
        [ "0x9"; "0b1001"; "0o11"; "+9"; "1_0"; "0u9"; "99999999999999999999" ]);
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listener in
        ignore (Unix.read fd (Bytes.create 4096) 0 4096);
        let resp = "HTTP/1.1 200 OK\r\nContent-Length: 0x2\r\n\r\nok" in
        ignore (Unix.write_substring fd resp 0 (String.length resp));
        Unix.close fd)
  in
  let c = Http.Client.connect ~port in
  let r = Http.Client.get c "/" in
  Http.Client.close c;
  Domain.join server;
  Unix.close listener;
  check_bool "client rejects a hex Content-Length" true (Result.is_error r)

(* A head whose blank line is split across two reads, and a second
   request pipelined behind the first one's body: both are answered, in
   order, on one connection. *)
let test_split_head_and_pipelined_request () =
  let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
  with_server (Service.handle s) (fun port ->
      let body = "A,1,x\nB,5,y\n" in
      let raw =
        send_raw ~port
          [
            Printf.sprintf
              "POST /ingest HTTP/1.1\r\nHost: l\r\nContent-Length: %d\r\n\
               Connection: keep-alive\r\n\r"
              (String.length body);
            "\n" ^ body
            ^ "GET /health HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n";
          ]
      in
      match split_responses raw with
      | [ (200, verdicts); (200, health) ] ->
          check_bool "first answer is the ingest's match" true
            (String.starts_with ~prefix:"{\"type\":\"match\"" verdicts);
          check_str "second answer is /health" "ok\n" health
      | rs -> Alcotest.failf "expected two 200 responses, got %d" (List.length rs))

let test_http_idle_connection_times_out ~workers () =
  with_server ~io_timeout:0.2 ~workers
    (fun _ -> Http.response "ok")
    (fun port ->
      (* A client that connects and sends nothing must not wedge a
         worker forever: the read deadline answers 408. *)
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let buf = Bytes.create 1024 in
      let n = Unix.read s buf 0 (Bytes.length buf) in
      Unix.close s;
      let raw = Bytes.sub_string buf 0 n in
      check_bool "idle connection answered with 408" true
        (String.starts_with ~prefix:"HTTP/1.1 408" raw);
      (* ... and the server is free again for the next client. *)
      match Http.get ~port "/anything" with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "server wedged after idle connection")

let test_http_survives_client_reset ~workers () =
  (* A peer that resets the connection while the response is being
     written must surface as a catchable EPIPE/ECONNRESET, not as a
     fatal SIGPIPE. The big body forces the server through multiple
     writes so at least one lands after the RST. *)
  let big = String.make (8 * 1024 * 1024) 'x' in
  with_server ~workers
    (fun _ -> Http.response big)
    (fun port ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let msg = "GET /big HTTP/1.1\r\n\r\n" in
      ignore (Unix.write_substring s msg 0 (String.length msg));
      (* linger 0 turns close into an RST instead of an orderly FIN *)
      Unix.setsockopt_optint s Unix.SO_LINGER (Some 0);
      Unix.close s;
      (* the server must still be alive and serving *)
      match Http.get ~port "/again" with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "server died after client reset")

(* --- The acceptance scenario: replayed stream under concurrent scrape,
   scraped counters equal to the post-run registry exactly --- *)

let test_replay_under_scrape () =
  let events = 2_000 in
  let service = Service.create ~max_partials:256 (queries "SEQ(E1, E2) WITHIN 20") in
  let server = Http.listen ~port:0 () in
  let port = Http.port server in
  let http_domain =
    Domain.spawn (fun () -> Http.serve server (Service.handle service))
  in
  let stop_scraper = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop_scraper) do
          match Http.get ~port "/metrics" with
          | Ok (200, _) -> incr n
          | Ok _ | Error _ -> ()
        done;
        !n)
  in
  let matches0 = Option.value ~default:0 (Obs.find_counter "serve.matches") in
  let lines0 =
    Option.value ~default:0 (Obs.find_counter "serve.ingest.lines")
  in
  let batch = Buffer.create 4096 in
  let sent = ref 0 in
  while !sent < events do
    Buffer.clear batch;
    let k = min 250 (events - !sent) in
    for i = 0 to k - 1 do
      let seq = !sent + i in
      Buffer.add_string batch
        (Printf.sprintf "E%d,%d,s%d\n" (1 + (seq mod 2)) (seq * 3) seq)
    done;
    (match Http.post ~port "/ingest" (Buffer.contents batch) with
    | Ok (200, _) -> ()
    | Ok (st, b) -> Alcotest.failf "ingest HTTP %d: %s" st b
    | Error e -> Alcotest.failf "ingest: %s" e);
    sent := !sent + k
  done;
  Atomic.set stop_scraper true;
  let concurrent = Domain.join scraper in
  (* final quiescent scrape, then silence the server before snapshotting *)
  let final =
    match Http.get ~port "/metrics" with
    | Ok (200, body) -> body
    | _ -> Alcotest.fail "final scrape failed"
  in
  Http.stop server;
  Domain.join http_domain;
  check_bool "at least one concurrent scrape landed" true (concurrent > 0);
  check_int "every line ingested" events
    (Option.value ~default:0 (Obs.find_counter "serve.ingest.lines") - lines0);
  check_bool "stream produced matches" true
    (Option.value ~default:0 (Obs.find_counter "serve.matches") > matches0);
  let samples =
    match Report.Prom_text.parse_values final with
    | Ok s -> s
    | Error e -> Alcotest.failf "final scrape did not parse: %s" e
  in
  let sample key =
    List.find_map
      (fun (k, v) -> if String.equal k key then Some v else None)
      samples
  in
  (* The server went quiet after the final scrape, so every counter the
     scrape reported must equal the post-run registry value exactly. *)
  let snap = Obs.snapshot () in
  List.iter
    (fun (name, value) ->
      if not (String.starts_with ~prefix:"test." name) then
        match sample (Report.Prom_text.mangle name) with
        | Some v ->
            check_int (Printf.sprintf "scraped %s equals the registry" name)
              value (int_of_float v)
        | None ->
            Alcotest.failf "counter %s missing from the scrape" name)
    snap.Obs.counters;
  (* runtime gauges refresh on scrape: the uptime gauge must have moved *)
  check_bool "runtime gauges refreshed on scrape" true
    (match sample "whynot_runtime_uptime_ms" with
    | Some v -> v >= 0.0
    | None -> false)

(* --- Sharded pool: routing, differential equivalence, shedding --- *)

module Shard = Serve.Shard

let test_shard_routing () =
  let pool = Shard.create ~shards:4 (queries "SEQ(A, B) WITHIN 20") in
  check_int "keyless stream pins to shard 0" 0 (Shard.shard_of_key pool "");
  let k = Shard.shard_of_key pool "some-key" in
  check_bool "keys route inside the pool" true (k >= 0 && k < 4);
  check_int "routing is stable" k (Shard.shard_of_key pool "some-key")

(* Keyed streams through a 4-shard pool must produce exactly the
   match set of one sequential detector per key fed in the same order —
   verdict-set equality, compared as rendered JSONL so tags, timestamps
   and line numbers all participate. 8 keys over 4 shards forces
   collisions, so per-shard key isolation is exercised too. *)
let test_cross_shard_differential () =
  let query = "SEQ(A, B) WITHIN 20" in
  let nkeys = 8 in
  let line_of i =
    let key = Printf.sprintf "k%d" (i mod nkeys) in
    let step = i / nkeys in
    let event = if step mod 2 = 0 then "A" else "B" in
    Printf.sprintf "%s,%d,%s-%d,%s" event (step * 6) key step key
  in
  let bodies =
    (* five POSTs of 80 lines each, every body with a trailing newline *)
    List.init 5 (fun b ->
        String.concat ""
          (List.init 80 (fun j -> line_of ((b * 80) + j) ^ "\n")))
  in
  let service = Service.create ~shards:4 (queries query) in
  let pooled =
    List.concat_map
      (fun body ->
        let r = Service.handle service (req ~body "POST" "/ingest") in
        check_int "keyed ingest answers 200" 200 r.Http.status;
        List.filter
          (fun l -> not (String.equal l ""))
          (String.split_on_char '\n' r.Http.body))
      bodies
  in
  check_bool "no error verdicts on the keyed stream" true
    (List.for_all (String.starts_with ~prefix:"{\"type\":\"match\"") pooled);
  (* sequential oracle: one plain detector per key, same feed order, same
     running line numbers (each split slot consumes one, as ingest does) *)
  let dets = Hashtbl.create 16 in
  let det_for key =
    match Hashtbl.find_opt dets key with
    | Some d -> d
    | None ->
        let d = Cep.Detector.create (queries query) in
        Hashtbl.add dets key d;
        d
  in
  let lineno = ref 0 in
  let expected = ref [] in
  List.iter
    (fun body ->
      List.iter
        (fun line ->
          incr lineno;
          if not (String.equal line "") then begin
            match String.split_on_char ',' line with
            | [ event; ts; tag; key ] ->
                let inst =
                  {
                    Cep.Detector.event;
                    timestamp = int_of_string ts;
                    tag;
                  }
                in
                List.iter
                  (fun m ->
                    expected :=
                      Report.Json.to_string
                        (Ingest_reference.match_json ~line:!lineno m)
                      :: !expected)
                  (Cep.Detector.feed (det_for key) inst)
            | _ -> Alcotest.fail "test generated an unparseable line"
          end)
        (String.split_on_char '\n' body))
    bodies;
  check_bool "the keyed stream produced matches at all" true (pooled <> []);
  Alcotest.(check (list string))
    "sharded verdict set equals the per-key sequential detectors"
    (List.sort compare !expected)
    (List.sort compare pooled)

(* On keyless input a multi-shard service must be bit-identical to the
   single-shard one: same key "" -> same shard 0 -> one
   detector, so every JSONL response body matches byte for byte. *)
let test_keyless_bit_identity () =
  let bodies =
    [
      "A,1,x\nB,5,y\nC,bad\n";
      "event,timestamp,tag\nA,10,x2\nB,12,y2\n";
      "A,20,\"t, with comma\"\nB,22,z\n";
    ]
  in
  let pooled = Service.create ~shards:4 (queries "SEQ(A, B) WITHIN 20") in
  let inline = Service.create (queries "SEQ(A, B) WITHIN 20") in
  List.iter
    (fun body ->
      let rp = Service.handle pooled (req ~body "POST" "/ingest") in
      let ri = Service.handle inline (req ~body "POST" "/ingest") in
      check_int "same status" ri.Http.status rp.Http.status;
      check_str "bit-identical JSONL on keyless input" ri.Http.body
        rp.Http.body)
    bodies

let test_shed_429 () =
  let shed0 = Option.value ~default:0 (Obs.find_counter "serve.shed") in
  (* unit level: capacity 0 sheds every batch, all-or-nothing *)
  let pool =
    Shard.create ~shards:2 ~queue_capacity:0 (queries "SEQ(A, B) WITHIN 20")
  in
  let outcome =
    Shard.submit pool
      (Ingest.scan_line (Shard.template pool) "A,0,t,k" ~lineno:1
         ~on_error:(fun ~lineno:_ _ -> ()))
  in
  check_bool "capacity-0 pool sheds" true
    (match outcome with Shard.Shed -> true | Shard.Processed _ -> false);
  (* service level: the whole batch is shed -> 429 + Retry-After, and no
     line of it was applied (safe to retry wholesale) *)
  let s =
    Service.create ~shards:2 ~shard_queue:0 (queries "SEQ(A, B) WITHIN 20")
  in
  let lines0 = Option.value ~default:0 (Obs.find_counter "serve.ingest.lines") in
  let r = Service.handle s (req ~body:"A,1,x,k\nB,5,y,k\n" "POST" "/ingest") in
  check_int "shed ingest answers 429" 429 r.Http.status;
  check_bool "429 advertises Retry-After" true
    (List.mem_assoc "Retry-After" r.Http.headers);
  check_int "no line of a shed batch is applied" 0
    (Option.value ~default:0 (Obs.find_counter "serve.ingest.lines") - lines0);
  check_bool "shed counter accounts both sheds" true
    (Option.value ~default:0 (Obs.find_counter "serve.shed") - shed0 >= 2);
  (* a batch that parses to nothing never reaches the queues: still 200 *)
  let r2 = Service.handle s (req ~body:"event,timestamp,tag,key\n\n" "POST" "/ingest") in
  check_int "all-skip batch bypasses the full queue" 200 r2.Http.status

(* --- worker pool: concurrent soak, keep-alive, clean stop --- *)

let test_pool_soak () =
  let service = Service.create ~shards:2 (queries "SEQ(A, B) WITHIN 20") in
  let server = Http.listen ~port:0 () in
  let port = Http.port server in
  let pool_d =
    Domain.spawn (fun () ->
        Http.serve ~workers:3 server (Service.handle service))
  in
  let clients =
    List.init 3 (fun c ->
        Domain.spawn (fun () ->
            (* one keep-alive connection per client, mixed ingest/scrape *)
            let conn = Http.Client.connect ~port in
            let ok = ref 0 in
            for i = 0 to 24 do
              let key = Printf.sprintf "c%d" c in
              let ts = i * 10 in
              let body =
                Printf.sprintf "A,%d,a,%s\nB,%d,b,%s\n" ts key (ts + 5) key
              in
              (match Http.Client.post conn "/ingest" body with
              | Ok (200, _) -> incr ok
              | _ -> ());
              match Http.Client.get conn "/metrics" with
              | Ok (200, _) -> incr ok
              | _ -> ()
            done;
            Http.Client.close conn;
            !ok))
  in
  let totals = List.map Domain.join clients in
  Http.stop server;
  Domain.join pool_d;
  List.iter (fun n -> check_int "every soak request succeeded" 50 n) totals;
  (* 25 matches per client stream, all keys isolated *)
  check_bool "soak streams matched" true
    (Option.value ~default:0 (Obs.find_counter "serve.matches") > 0)

let test_pool_clean_stop () =
  let service = Service.create ~shards:2 (queries "SEQ(A, B) WITHIN 20") in
  let server = Http.listen ~port:0 () in
  let port = Http.port server in
  let pool_d =
    Domain.spawn (fun () ->
        Http.serve ~workers:2 server (Service.handle service))
  in
  let idle = Http.Client.connect ~port in
  (match Http.Client.get idle "/health" with
  | Ok (200, _) -> ()
  | _ -> Alcotest.fail "health over keep-alive failed");
  (* [idle] now sits in its keep-alive read on a worker; stop must shut
     its read side down and join promptly instead of waiting out the
     10s deadline *)
  let t0 = Unix.gettimeofday () in
  Http.stop server;
  Domain.join pool_d;
  check_bool "stop returns promptly with an in-flight keep-alive conn" true
    (Unix.gettimeofday () -. t0 < 5.0);
  check_bool "idle keep-alive connection was closed by stop" true
    (match Http.Client.get idle "/health" with
    | Error _ -> true
    | Ok _ -> false);
  Http.Client.close idle

(* Join [d] from a watchdog domain: [Some] its result if it finished
   within [seconds], [None] otherwise — so a server that never returns
   fails the test instead of hanging the suite. *)
let joins_within seconds d =
  let t0 = Unix.gettimeofday () in
  let finished = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        let r = Domain.join d in
        Atomic.set finished true;
        r)
  in
  while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < seconds do
    Unix.sleepf 0.01
  done;
  if Atomic.get finished then Some (Domain.join waiter) else None

(* Every worker parked in [accept], none holding a connection: one poke
   wakes one worker, and each worker woken into the stop flag must wake
   the next, or [serve] hangs joining the rest. *)
let test_stop_wakes_parked_workers () =
  let server = Http.listen ~port:0 () in
  let d =
    Domain.spawn (fun () ->
        Http.serve ~workers:4 server (fun _ -> Http.response "ok"))
  in
  (match Http.get ~port:(Http.port server) "/health" with
  | Ok (200, _) -> ()
  | _ -> Alcotest.fail "4-worker server did not answer");
  (* let the worker that answered settle back into accept *)
  Unix.sleepf 0.05;
  Http.stop server;
  check_bool "stop wakes every parked worker and serve returns within 2 s"
    true
    (joins_within 2.0 d = Some ())

(* A worker that dies (here its handler raises) stops the others, and
   [serve] re-raises once all are joined instead of hanging on the ones
   parked in [accept]. *)
let test_failed_worker_stops_serve () =
  let server = Http.listen ~port:0 () in
  let d =
    Domain.spawn (fun () ->
        match Http.serve ~workers:3 server (fun _ -> failwith "boom") with
        | () -> Ok ()
        | exception Failure msg -> Error msg)
  in
  (* the connection closes without a response *)
  (match Http.get ~port:(Http.port server) "/x" with
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  check_bool "serve re-raises the worker's failure within 2 s" true
    (joins_within 2.0 d = Some (Error "boom"))

let test_keepalive_reuse_and_cap ~workers () =
  let reuses0 =
    Option.value ~default:0 (Obs.find_counter "serve.keepalive.reuses")
  in
  with_server ~workers
    (fun _ -> Http.response "ok")
    (fun port ->
      let c = Http.Client.connect ~port in
      for i = 1 to 5 do
        match Http.Client.get c "/x" with
        | Ok (200, "ok") -> ()
        | _ -> Alcotest.failf "keep-alive request %d failed" i
      done;
      Http.Client.close c);
  let reuses1 =
    Option.value ~default:0 (Obs.find_counter "serve.keepalive.reuses")
  in
  check_bool "reuse counter counts kept-alive turns" true
    (reuses1 - reuses0 >= 4);
  (* the per-connection cap: a limit of 2 closes after the second
     response, the third request on that connection fails cleanly *)
  with_server ~keepalive_limit:2 ~workers
    (fun _ -> Http.response "ok")
    (fun port ->
      let c = Http.Client.connect ~port in
      (match Http.Client.get c "/1" with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "first capped request failed");
      (match Http.Client.get c "/2" with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "second capped request failed");
      check_bool "third request past the cap fails cleanly" true
        (match Http.Client.get c "/3" with Error _ -> true | Ok _ -> false);
      Http.Client.close c)

(* --- Request tracing: ids, /ready back-pressure, tail capture --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_ready_backpressure () =
  (* capacity-0 shards count as full, so an admission right now would
     shed — readiness must say so and name the shards *)
  let sat =
    Service.create ~shards:2 ~shard_queue:0 (queries "SEQ(A, B) WITHIN 20")
  in
  let r = Service.handle sat (req "GET" "/ready") in
  check_int "saturated pool answers 503" 503 r.Http.status;
  check_str "back-pressure body is JSON" "application/json" r.Http.content_type;
  check_bool "body names the reason and both saturated shards" true
    (contains ~needle:"\"reason\":\"backpressure\"" r.Http.body
    && contains ~needle:"\"shard\":0" r.Http.body
    && contains ~needle:"\"shard\":1" r.Http.body
    && contains ~needle:"\"capacity\":0" r.Http.body);
  Service.log_stop sat;
  let r = Service.handle sat (req "GET" "/ready") in
  check_int "stopping still answers 503" 503 r.Http.status;
  check_str "stopping takes precedence over back-pressure" "stopping\n"
    r.Http.body;
  (* shards with room: readiness transitions back to plain 200 *)
  let ok = Service.create ~shards:2 (queries "SEQ(A, B) WITHIN 20") in
  let r = Service.handle ok (req "GET" "/ready") in
  check_int "unsaturated pool stays ready" 200 r.Http.status;
  check_str "plain ready body" "ready\n" r.Http.body

let test_request_id_echo () =
  let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
  with_server (Service.handle s) (fun port ->
      let id_of headers =
        match List.assoc_opt "x-request-id" headers with
        | Some id -> id
        | None -> Alcotest.fail "response missing X-Request-Id"
      in
      let first =
        match
          Http.request_full ~port ~meth:"POST" ~body:"A,1,x\nB,5,y\n" "/ingest"
        with
        | Ok (200, headers, body) ->
            let id = id_of headers in
            check_bool "id is non-empty" true (String.length id > 0);
            check_bool "verdict lines carry the same request id" true
              (contains
                 ~needle:(Printf.sprintf "\"request_id\":\"%s\"" id)
                 body);
            id
        | Ok (st, _, b) -> Alcotest.failf "ingest HTTP %d: %s" st b
        | Error e -> Alcotest.failf "ingest: %s" e
      in
      (match Http.request_full ~port ~meth:"GET" "/health" with
      | Ok (200, headers, _) ->
          check_bool "each request gets a fresh id" true
            (not (String.equal first (id_of headers)))
      | _ -> Alcotest.fail "health failed");
      (* errors echo the id too *)
      match Http.request_full ~port ~meth:"GET" "/nosuch" with
      | Ok (404, headers, _) ->
          check_bool "404 carries an id as well" true
            (String.length (id_of headers) > 0)
      | _ -> Alcotest.fail "expected 404")

(* The span tree of one captured ingest request, as "parent>name" rows
   ("-" for the root), sorted, so emission order is not pinned. The body
   routes a line to every shard, so each shard's service span shows up. *)
let captured_ingest_tree ~workers ~shards =
  Obs.Request.configure ~threshold_us:0 ~capacity:16 ();
  Obs.Request.clear_retained ();
  Fun.protect ~finally:Obs.Request.disable @@ fun () ->
  let s = Service.create ~shards (queries "SEQ(A, B) WITHIN 20") in
  let key_on k =
    let rec go i =
      let key = Printf.sprintf "k%d" i in
      if Shard.shard_of_key (Service.pool s) key = k then key else go (i + 1)
    in
    go 0
  in
  let body =
    String.concat ""
      (List.init shards (fun k ->
           Printf.sprintf "A,%d,a,%s\nB,%d,b,%s\n" (10 * k) (key_on k)
             ((10 * k) + 5) (key_on k)))
  in
  with_server ~workers (Service.handle s) (fun port ->
      match Http.post ~port "/ingest" body with
      | Ok (200, _) -> ()
      | Ok (st, b) -> Alcotest.failf "ingest HTTP %d: %s" st b
      | Error e -> Alcotest.failf "ingest: %s" e);
  match Obs.Request.retained () with
  | [ info ] ->
      let opens =
        List.filter_map
          (fun (e : Obs.Trace.event) ->
            match e.kind with
            | Obs.Trace.Span_open { name; parent } -> Some (e.span, name, parent)
            | _ -> None)
          info.r_events
      in
      let name_of id =
        List.find_map
          (fun (i, name, _) -> if i = id then Some name else None)
          opens
        |> Option.value ~default:"-"
      in
      List.sort String.compare
        (List.map (fun (_, name, parent) -> name_of parent ^ ">" ^ name) opens)
  | infos -> Alcotest.failf "expected one retained request, got %d" (List.length infos)

let test_captured_span_tree () =
  let check_tree label expected tree =
    Alcotest.(check (list string)) label (List.sort String.compare expected) tree
  in
  check_tree "one shard, one worker"
    [
      "-" ^ ">serve.request";
      "serve.request>serve.request.read";
      "serve.request>serve.request.service";
      "serve.request.service>serve.ingest.parse";
      "serve.request.service>serve.ingest.submit";
      "serve.ingest.submit>serve.shard.service";
      "serve.request.service>serve.ingest.reassemble";
      "serve.request>serve.request.write";
    ]
    (captured_ingest_tree ~workers:1 ~shards:1);
  check_tree "two shards, two workers"
    [
      "-" ^ ">serve.request";
      "serve.request>serve.request.read";
      "serve.request>serve.request.service";
      "serve.request.service>serve.ingest.parse";
      "serve.request.service>serve.ingest.submit";
      "serve.ingest.submit>serve.shard.service";
      "serve.ingest.submit>serve.shard.service";
      "serve.request.service>serve.ingest.reassemble";
      "serve.request>serve.request.write";
    ]
    (captured_ingest_tree ~workers:2 ~shards:2)

(* A pooled keep-alive soak with capture on retains complete span trees
   — unique ids, exactly one read span, at least one shard-service span,
   one write span, and no orphaned opens after a clean stop. *)
let test_trace_capture_soak () =
  Obs.Request.configure ~threshold_us:0 ~capacity:256 ();
  Obs.Request.clear_retained ();
  Fun.protect ~finally:Obs.Request.disable (fun () ->
      let service = Service.create ~shards:2 (queries "SEQ(A, B) WITHIN 20") in
      let server = Http.listen ~port:0 () in
      let port = Http.port server in
      let pool_d =
        Domain.spawn (fun () ->
            Http.serve ~workers:3 server (Service.handle service))
      in
      let clients =
        List.init 3 (fun c ->
            Domain.spawn (fun () ->
                let conn = Http.Client.connect ~port in
                let ok = ref 0 in
                for i = 0 to 9 do
                  let key = Printf.sprintf "t%d" c in
                  let ts = i * 10 in
                  let body =
                    Printf.sprintf "A,%d,a,%s\nB,%d,b,%s\n" ts key (ts + 5) key
                  in
                  match Http.Client.post conn "/ingest" body with
                  | Ok (200, _) -> incr ok
                  | _ -> ()
                done;
                Http.Client.close conn;
                !ok))
      in
      let totals = List.map Domain.join clients in
      (* the debug surface over HTTP while the pool is still serving *)
      let slow_json =
        match Http.get ~port "/debug/slow" with
        | Ok (200, body) -> body
        | _ -> Alcotest.fail "GET /debug/slow failed"
      in
      (match Http.get ~port "/debug/slow?format=jsonl" with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "jsonl export failed");
      (match Http.get ~port "/debug/slow?format=chrome" with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "chrome export failed");
      (match Http.get ~port "/debug/slow?format=nope" with
      | Ok (400, _) -> ()
      | _ -> Alcotest.fail "unknown format must answer 400");
      Http.stop server;
      Domain.join pool_d;
      List.iter (fun n -> check_int "every soak ingest succeeded" 10 n) totals;
      check_bool "/debug/slow shows shard-service spans" true
        (contains ~needle:"serve.shard.service" slow_json);
      let retained = Obs.Request.retained () in
      let ids = List.map (fun (i : Obs.Request.info) -> i.r_id) retained in
      check_int "request ids are unique across the soak" (List.length ids)
        (List.length (List.sort_uniq compare ids));
      let posts =
        List.filter
          (fun (i : Obs.Request.info) -> String.equal i.r_meth "POST")
          retained
      in
      check_int "every soak ingest was retained at threshold 0" 30
        (List.length posts);
      List.iter
        (fun (i : Obs.Request.info) ->
          let opens =
            List.filter_map
              (fun (e : Obs.Trace.event) ->
                match e.kind with
                | Obs.Trace.Span_open { name; _ } -> Some (e.span, name)
                | _ -> None)
              i.r_events
          in
          let closes =
            List.filter_map
              (fun (e : Obs.Trace.event) ->
                match e.kind with
                | Obs.Trace.Span_close _ -> Some e.span
                | _ -> None)
              i.r_events
          in
          let count name =
            List.length
              (List.filter (fun (_, n) -> String.equal n name) opens)
          in
          check_int "no capture events were dropped" 0 i.r_events_dropped;
          check_int "one serve.request root span" 1 (count "serve.request");
          check_int "exactly one serve.request.read span" 1
            (count "serve.request.read");
          check_bool "at least one shard-service span" true
            (count "serve.shard.service" >= 1);
          check_int "exactly one write span" 1 (count "serve.request.write");
          check_int "no orphaned span opens after clean stop" 0
            (List.length
               (List.filter (fun (id, _) -> not (List.mem id closes)) opens));
          check_bool "all events share the request's trace id" true
            (match i.r_events with
            | [] -> false
            | e0 :: rest ->
                List.for_all
                  (fun (e : Obs.Trace.event) -> e.trace_id = e0.trace_id)
                  rest))
        posts;
      Obs.Request.clear_retained ())

let test_shed_capture_and_429_body () =
  Obs.Request.configure ~threshold_us:0 ~capacity:16 ();
  Obs.Request.clear_retained ();
  Fun.protect ~finally:Obs.Request.disable (fun () ->
      let s =
        Service.create ~shards:2 ~shard_queue:0 (queries "SEQ(A, B) WITHIN 20")
      in
      let shed_id =
        with_server (Service.handle s) (fun port ->
            match
              Http.request_full ~port ~meth:"POST" ~body:"A,1,x,k\nB,5,y,k\n"
                "/ingest"
            with
            | Ok (429, headers, body) ->
                let id =
                  match List.assoc_opt "x-request-id" headers with
                  | Some id -> id
                  | None -> Alcotest.fail "429 missing X-Request-Id"
                in
                check_bool "429 body is JSON naming the overload" true
                  (contains ~needle:"overloaded" body);
                check_bool "429 body carries the request id" true
                  (contains ~needle:id body);
                id
            | Ok (st, _, b) -> Alcotest.failf "expected 429, got %d: %s" st b
            | Error e -> Alcotest.failf "shed request failed: %s" e)
      in
      let infos = Obs.Request.retained () in
      check_bool "the shed request was retained with its flags" true
        (List.exists
           (fun (i : Obs.Request.info) ->
             String.equal i.r_id shed_id && i.r_shed && i.r_status = 429)
           infos);
      Obs.Request.clear_retained ())

let test_access_log () =
  let buf = Buffer.create 512 in
  let old_level = Obs.Log.level () in
  Obs.Log.set_sink (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  Obs.Log.set_level (Some Obs.Log.Info);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level old_level;
      Obs.Request.set_access_level (Some Obs.Log.Info);
      Obs.Log.reset_sink ())
    (fun () ->
      let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
      with_server (Service.handle s) (fun port ->
          match Http.post ~port "/ingest" "A,1,x\nB,5,y\n" with
          | Ok (200, _) -> ()
          | _ -> Alcotest.fail "ingest failed");
      let out = Buffer.contents buf in
      check_bool "serve.access line emitted at info" true
        (contains ~needle:"\"event\":\"serve.access\"" out);
      check_bool "access line decomposes the latency" true
        (contains ~needle:"\"read_us\":" out
        && contains ~needle:"\"service_us\":" out
        && contains ~needle:"\"write_us\":" out
        && contains ~needle:"\"total_us\":" out);
      check_bool "access line carries id, route and flags" true
        (contains ~needle:"\"id\":\"" out
        && contains ~needle:"\"path\":\"/ingest\"" out
        && contains ~needle:"\"status\":200" out
        && contains ~needle:"\"shed\":false" out);
      (* --access-log off: the line disappears without touching the rest
         of the logging config *)
      Obs.Request.set_access_level None;
      Buffer.clear buf;
      let s2 = Service.create (queries "SEQ(A, B) WITHIN 20") in
      with_server (Service.handle s2) (fun port ->
          match Http.post ~port "/ingest" "A,1,x\nB,5,y\n" with
          | Ok (200, _) -> ()
          | _ -> Alcotest.fail "second ingest failed");
      check_bool "access level None suppresses the line" false
        (contains ~needle:"\"event\":\"serve.access\"" (Buffer.contents buf)))

(* /debug/gc, /debug/slow?limit, POST /debug/slow/clear, and the GC/shard
   fields woven into slow_json — end to end against a live server with the
   runtime-events poller running. *)
let test_debug_gc_and_slow_controls () =
  Obs.Request.configure ~threshold_us:0 ~capacity:64 ();
  Obs.Request.clear_retained ();
  Obs.Rt_events.reset_for_test ();
  Obs.Rt_events.start ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Rt_events.stop ();
      Obs.Rt_events.reset_for_test ();
      Obs.Request.disable ();
      Obs.Request.clear_retained ())
    (fun () ->
      let s = Service.create ~shards:4 (queries "SEQ(A, B) WITHIN 20") in
      with_server (Service.handle s) (fun port ->
          for i = 1 to 5 do
            let body =
              Printf.sprintf "A,%d,a,k%d\nB,%d,b,k%d\n" i i (i + 3) i
            in
            match Http.post ~port "/ingest" body with
            | Ok (200, _) -> ()
            | Ok (st, b) -> Alcotest.failf "ingest %d: status %d: %s" i st b
            | Error e -> Alcotest.failf "ingest %d failed: %s" i e
          done;
          (* slow_json carries the shard set and the GC decomposition *)
          (match Http.get ~port "/debug/slow" with
          | Ok (200, body) ->
              check_bool "slow_json rows carry shard indices" true
                (contains ~needle:"\"shards\":[" body);
              check_bool "slow_json rows carry the gc_us object" true
                (contains ~needle:"\"gc_us\":" body);
              check_bool "slow_json spans carry per-span gc overlap" true
                (contains ~needle:"\"gc_overlap_us\":" body)
          | Ok (st, b) -> Alcotest.failf "/debug/slow: status %d: %s" st b
          | Error e -> Alcotest.failf "/debug/slow failed: %s" e);
          (* ?limit=N returns the N most recent requests *)
          (match Http.get ~port "/debug/slow?limit=2" with
          | Ok (200, body) -> (
              match Report.Json.of_string body with
              | Ok (Report.Json.Obj fields) -> (
                  match List.assoc_opt "requests" fields with
                  | Some (Report.Json.List reqs) ->
                      check_int "limit=2 returns two requests" 2
                        (List.length reqs)
                  | _ -> Alcotest.fail "limit=2: no requests array")
              | _ -> Alcotest.fail "limit=2: response is not a JSON object")
          | Ok (st, b) -> Alcotest.failf "limit=2: status %d: %s" st b
          | Error e -> Alcotest.failf "limit=2 failed: %s" e);
          (match Http.get ~port "/debug/slow?limit=0" with
          | Ok (200, body) ->
              check_bool "limit=0 returns an empty request list" true
                (contains ~needle:"\"requests\":[]" body)
          | Ok (st, b) -> Alcotest.failf "limit=0: status %d: %s" st b
          | Error e -> Alcotest.failf "limit=0 failed: %s" e);
          (match Http.get ~port "/debug/slow?limit=bogus" with
          | Ok (400, _) -> ()
          | Ok (st, b) ->
              Alcotest.failf "malformed limit: expected 400, got %d: %s" st b
          | Error e -> Alcotest.failf "malformed limit failed: %s" e);
          (* /debug/gc reports the live poller state *)
          Gc.full_major ();
          ignore (Obs.Rt_events.poll_now ());
          (match Http.get ~port "/debug/gc" with
          | Ok (200, body) ->
              check_bool "/debug/gc says the poller is running" true
                (contains ~needle:"\"running\":true" body);
              check_bool "/debug/gc lists per-domain summaries" true
                (contains ~needle:"\"dom\":" body);
              check_bool "/debug/gc carries the recent-pause rings" true
                (contains ~needle:"\"recent\":" body)
          | Ok (st, b) -> Alcotest.failf "/debug/gc: status %d: %s" st b
          | Error e -> Alcotest.failf "/debug/gc failed: %s" e);
          (match Http.get ~port "/metrics" with
          | Ok (200, body) ->
              check_bool "pause histogram reaches the exposition" true
                (contains ~needle:"whynot_runtime_gc_pause_duration_us" body)
          | Ok (st, b) -> Alcotest.failf "/metrics: status %d: %s" st b
          | Error e -> Alcotest.failf "/metrics failed: %s" e);
          (* clearing the retained set: POST only *)
          (match Http.get ~port "/debug/slow/clear" with
          | Ok (405, _) -> ()
          | Ok (st, b) ->
              Alcotest.failf "GET clear: expected 405, got %d: %s" st b
          | Error e -> Alcotest.failf "GET clear failed: %s" e);
          (match Http.post ~port "/debug/slow/clear" "" with
          | Ok (200, body) ->
              check_bool "clear acknowledges" true
                (contains ~needle:"cleared" body)
          | Ok (st, b) -> Alcotest.failf "POST clear: status %d: %s" st b
          | Error e -> Alcotest.failf "POST clear failed: %s" e);
          (* the clear request itself may be retained after its own scope
             finalizes, but no earlier /ingest capture survives *)
          let infos = Obs.Request.retained () in
          check_bool "clear drops the retained ingest requests" false
            (List.exists
               (fun (i : Obs.Request.info) ->
                 String.equal i.r_path "/ingest")
               infos)))

(* Only Content-Length frames a request body: a chunked POST is answered
   411 and one whose Content-Length is repeated 400, never 200 with its
   events dropped. The connection closes (the request pipelined behind
   it is never read) and no line of the body is ingested. *)
let test_ingest_framing_rejected ~workers () =
  let s = Service.create (queries "SEQ(A, B) WITHIN 20") in
  let lines () =
    Option.value ~default:0 (Obs.find_counter "serve.ingest.lines")
  in
  let lines0 = lines () in
  let body = "A,1,a,k\nB,5,b,k\n" in
  with_server ~workers (Service.handle s) (fun port ->
      let statuses framing =
        send_raw ~port
          [
            "POST /ingest HTTP/1.1\r\nHost: l\r\nConnection: keep-alive\r\n"
            ^ framing
            ^ "GET /health HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n";
          ]
        |> split_responses |> List.map fst
      in
      Alcotest.(check (list int))
        "chunked body: 411, then the connection closes" [ 411 ]
        (statuses
           (Printf.sprintf "Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
              (String.length body) body));
      Alcotest.(check (list int))
        "repeated Content-Length: 400, then the connection closes" [ 400 ]
        (statuses
           (Printf.sprintf "Content-Length: 0\r\nContent-Length: %d\r\n\r\n%s"
              (String.length body) body)));
  check_int "no line of either body was ingested" 0 (lines () - lines0)

let check_admission_counts_zero ~shards label =
  for k = 0 to shards - 1 do
    check_int
      (Printf.sprintf "%s: shard %d admission count" label k)
      0
      (Option.value ~default:(-1)
         (Obs.find_gauge (Printf.sprintf "serve.shard.%d.queue_depth" k)))
  done

(* Three domains POST keyed batches to one service at once, each batch
   touching every shard: per shard, one key the domain keeps for the
   whole run and fresh keys that grow the shard's key table under the
   other domains' feet. Each domain's verdicts must equal one sequential
   detector per key over that domain's lines; line numbers and request
   ids depend on the interleaving, so they are left out of the
   comparison. Once every submitter has returned, every admission count
   reads 0 and /ready answers 200 — and the counts read 0 after a
   capacity-0 shed as well. *)
let test_concurrent_submitters ~shards () =
  let query = "SEQ(A, B) WITHIN 20" in
  let s = Service.create ~shards (queries query) in
  let key_on k prefix =
    let rec go i =
      let key = Printf.sprintf "%s-%d" prefix i in
      if Shard.shard_of_key (Service.pool s) key = k then key else go (i + 1)
    in
    go 0
  in
  let batches = 30 and fresh = 4 in
  (* batch [b] of domain [d]: (event, timestamp, tag, key) lines *)
  let lines_of d b =
    List.concat_map
      (fun k ->
        let kept = key_on k (Printf.sprintf "d%d" d) in
        let step e = (e, e * 6, Printf.sprintf "%s-%d" kept e, kept) in
        [ step (2 * b); step ((2 * b) + 1) ]
        @ List.concat_map
            (fun j ->
              let key = key_on k (Printf.sprintf "d%d-b%d-%d" d b j) in
              [ (0, 0, key ^ "-a", key); (1, 5, key ^ "-b", key) ])
            (List.init fresh Fun.id))
      (List.init shards Fun.id)
  in
  let event_of e = if e mod 2 = 0 then "A" else "B" in
  let body_of d b =
    String.concat ""
      (List.map
         (fun (e, ts, tag, key) ->
           Printf.sprintf "%s,%d,%s,%s\n" (event_of e) ts tag key)
         (lines_of d b))
  in
  let normalize verdict =
    match Report.Json.of_string verdict with
    | Ok (Report.Json.Obj fields) ->
        Report.Json.to_string
          (Report.Json.Obj
             (List.filter
                (fun (k, _) ->
                  not (String.equal k "line" || String.equal k "request_id"))
                fields))
    | _ -> Alcotest.failf "verdict is not a JSON object: %s" verdict
  in
  let submitters =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            List.init batches (fun b ->
                let r =
                  Service.handle s (req ~body:(body_of d b) "POST" "/ingest")
                in
                ( r.Http.status,
                  List.filter
                    (fun l -> not (String.equal l ""))
                    (String.split_on_char '\n' r.Http.body) ))))
  in
  List.iteri
    (fun d responses ->
      List.iter
        (fun (status, _) -> check_int "concurrent ingest answers 200" 200 status)
        responses;
      let dets = Hashtbl.create 64 in
      let expected =
        List.concat_map
          (fun (e, timestamp, tag, key) ->
            let det =
              match Hashtbl.find_opt dets key with
              | Some det -> det
              | None ->
                  let det = Cep.Detector.create (queries query) in
                  Hashtbl.add dets key det;
                  det
            in
            Cep.Detector.feed det
              { Cep.Detector.event = event_of e; timestamp; tag }
            |> List.map (fun m ->
                   normalize
                     (Report.Json.to_string (Ingest_reference.match_json ~line:0 m))))
          (List.concat_map (lines_of d) (List.init batches Fun.id))
      in
      check_bool "the oracle matched at all" true (expected <> []);
      Alcotest.(check (list string))
        (Printf.sprintf "domain %d's verdicts equal its per-key detectors" d)
        (List.sort compare expected)
        (List.sort compare (List.map normalize (List.concat_map snd responses))))
    (List.map Domain.join submitters);
  check_admission_counts_zero ~shards "after the submitters";
  check_int "/ready answers 200 after the submitters" 200
    (Service.handle s (req "GET" "/ready")).Http.status;
  let full = Service.create ~shards ~shard_queue:0 (queries query) in
  check_int "capacity-0 batch sheds" 429
    (Service.handle full (req ~body:(body_of 0 0) "POST" "/ingest")).Http.status;
  check_admission_counts_zero ~shards "after a shed"

exception Sink_failed

(* A batch whose feeding raises part-way — here the log sink fails on the
   first detector.match, while shard 0 is fed and shard 1 is not reached —
   still gives back every shard lock and every admission count: the
   counts read 0, /ready answers 200, and the next batch over both shards
   is applied. A leaked lock would make that batch raise (the mutex is
   relocked by the domain still holding it) or hang. The events fed
   before the raise stay applied; the shard not reached saw none. *)
let test_raise_mid_batch () =
  let s = Service.create ~shards:2 (queries "SEQ(A, B) WITHIN 20") in
  let key_on k =
    let rec go i =
      let key = Printf.sprintf "r%d" i in
      if Shard.shard_of_key (Service.pool s) key = k then key else go (i + 1)
    in
    go 0
  in
  let k0 = key_on 0 and k1 = key_on 1 in
  let events k =
    Option.value ~default:0
      (Obs.find_counter (Printf.sprintf "serve.shard.%d.events" k))
  in
  let events0 = events 0 and events1 = events 1 in
  let old_level = Obs.Log.level () in
  Obs.Log.set_sink (fun line ->
      if contains ~needle:"\"event\":\"detector.match\"" line then
        raise Sink_failed);
  Obs.Log.set_level (Some Obs.Log.Info);
  let raised =
    Fun.protect
      ~finally:(fun () ->
        Obs.Log.set_level old_level;
        Obs.Log.reset_sink ())
      (fun () ->
        let body =
          Printf.sprintf "A,1,a,%s\nB,5,b,%s\nA,2,c,%s\nB,6,d,%s\n" k0 k0 k1
            k1
        in
        match Service.handle s (req ~body "POST" "/ingest") with
        | _ -> false
        | exception Sink_failed -> true)
  in
  check_bool "feeding raised part-way through the batch" true raised;
  check_int "shard 0's events before the raise stay applied" 2
    (events 0 - events0);
  check_int "shard 1 was not reached" 0 (events 1 - events1);
  check_admission_counts_zero ~shards:2 "after the raise";
  check_int "/ready answers 200 after the raise" 200
    (Service.handle s (req "GET" "/ready")).Http.status;
  let r =
    Service.handle s
      (req
         ~body:
           (Printf.sprintf "A,30,e,%s\nB,35,f,%s\nA,31,g,%s\nB,36,h,%s\n" k0
              k0 k1 k1)
         "POST" "/ingest")
  in
  check_int "the next batch is applied" 200 r.Http.status;
  check_int "both keys match in the next batch" 2
    (List.length
       (List.filter
          (String.starts_with ~prefix:"{\"type\":\"match\"")
          (String.split_on_char '\n' r.Http.body)));
  check_admission_counts_zero ~shards:2 "after the next batch"

(* The access log's [shards] field is the exact set of shards a batch
   routes to, noted once per batch by [Shard.submit] before admission: a
   two-shard batch reads "0,1" whether it is applied or shed at capacity
   0, and a batch of parse errors only routes nowhere. *)
let test_access_log_shards () =
  let buf = Buffer.create 512 in
  let old_level = Obs.Log.level () in
  Obs.Log.set_sink (fun line ->
      if contains ~needle:"\"event\":\"serve.access\"" line then
        Buffer.add_string buf line);
  let old_access = Obs.Request.access_level () in
  Obs.Log.set_level (Some Obs.Log.Info);
  Obs.Request.set_access_level (Some Obs.Log.Info);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level old_level;
      Obs.Request.set_access_level old_access;
      Obs.Log.reset_sink ())
    (fun () ->
      let access_shards ~shard_queue body =
        let s =
          Service.create ~shards:2 ~shard_queue
            (queries "SEQ(A, B) WITHIN 20")
        in
        Buffer.clear buf;
        let status =
          with_server (Service.handle s) (fun port ->
              match Http.post ~port "/ingest" body with
              | Ok (st, _) -> st
              | Error e -> Alcotest.failf "ingest failed: %s" e)
        in
        let shards =
          match
            List.filter
              (fun l -> not (String.equal l ""))
              (String.split_on_char '\n' (Buffer.contents buf))
          with
          | [ line ] -> (
              match Report.Json.of_string line with
              | Ok (Report.Json.Obj fields) -> (
                  match List.assoc_opt "shards" fields with
                  | Some (Report.Json.String v) -> v
                  | _ -> Alcotest.failf "no shards string in %s" line)
              | _ -> Alcotest.failf "access line is not an object: %s" line)
          | _ ->
              Alcotest.failf "expected one access line, got %S"
                (Buffer.contents buf)
        in
        (status, shards)
      in
      let probe = Service.create ~shards:2 (queries "SEQ(A, B) WITHIN 20") in
      let key_on k =
        let rec go i =
          let key = Printf.sprintf "s%d" i in
          if Shard.shard_of_key (Service.pool probe) key = k then key
          else go (i + 1)
        in
        go 0
      in
      let two_shards =
        Printf.sprintf "A,1,a,%s\nB,5,b,%s\nA,2,c,%s\n" (key_on 1) (key_on 1)
          (key_on 0)
      in
      let status, shards = access_shards ~shard_queue:64 two_shards in
      check_int "two-shard batch applied" 200 status;
      Alcotest.(check string) "two-shard batch routes to 0,1" "0,1" shards;
      let status, shards = access_shards ~shard_queue:0 two_shards in
      check_int "capacity-0 batch sheds" 429 status;
      Alcotest.(check string) "a shed batch still reports 0,1" "0,1" shards;
      let status, shards =
        access_shards ~shard_queue:64 "A,notatime\nB\n"
      in
      check_int "parse errors answer 200" 200 status;
      Alcotest.(check string) "parse errors route nowhere" "" shards)

(* One case at the default single worker under [name], one at three
   workers: the same accept loop must behave alike at either count. *)
let at_workers name test =
  [
    Alcotest.test_case name `Quick (test ~workers:1);
    Alcotest.test_case ("3 workers: " ^ name) `Quick (test ~workers:3);
  ]

let suite =
  ( "serve",
    [
      Alcotest.test_case "ingest line grammar" `Quick test_ingest_lines;
      Alcotest.test_case "routing" `Quick test_routing;
      Alcotest.test_case "stdin mode rejects HTTP ingest" `Quick
        test_stdin_mode_rejects_http_ingest;
      Alcotest.test_case "POST /ingest JSONL verdicts" `Quick test_ingest_route;
      Alcotest.test_case "ingest_line results" `Quick test_ingest_line_results;
      Alcotest.test_case "http end-to-end" `Quick test_http_end_to_end;
      Alcotest.test_case "http rejects malformed input" `Quick
        test_http_rejects_malformed;
    ]
    @ at_workers "http idle connection times out"
        test_http_idle_connection_times_out
    @ at_workers "http survives client reset" test_http_survives_client_reset
    @ [
      Alcotest.test_case "replay under concurrent scrape" `Quick
        test_replay_under_scrape;
      Alcotest.test_case "shard routing" `Quick test_shard_routing;
      Alcotest.test_case "cross-shard differential vs sequential detectors"
        `Quick test_cross_shard_differential;
      Alcotest.test_case "keyless streams bit-identical to inline" `Quick
        test_keyless_bit_identity;
      Alcotest.test_case "full shard queue sheds with 429" `Quick
        test_shed_429;
      Alcotest.test_case "pool soak: concurrent ingest and scrape" `Quick
        test_pool_soak;
      Alcotest.test_case "pool clean stop with in-flight connections" `Quick
        test_pool_clean_stop;
      Alcotest.test_case "stop wakes every worker parked in accept" `Quick
        test_stop_wakes_parked_workers;
      Alcotest.test_case "a failed worker stops serve, which re-raises" `Quick
        test_failed_worker_stops_serve;
    ]
    @ at_workers "keep-alive reuse and per-connection cap"
        test_keepalive_reuse_and_cap
    @ [
      Alcotest.test_case "/ready reflects shard back-pressure" `Quick
        test_ready_backpressure;
      Alcotest.test_case "request ids echoed and stamped on verdicts" `Quick
        test_request_id_echo;
      Alcotest.test_case "trace capture soak: complete span trees" `Quick
        test_trace_capture_soak;
      Alcotest.test_case "shed requests captured with 429 JSON body" `Quick
        test_shed_capture_and_429_body;
      Alcotest.test_case "access log decomposition" `Quick test_access_log;
      Alcotest.test_case "/debug/gc and slow-capture controls" `Quick
        test_debug_gc_and_slow_controls;
      Alcotest.test_case "captured ingest span tree pinned" `Quick
        test_captured_span_tree;
      Alcotest.test_case "Content-Length is decimal digits only" `Quick
        test_content_length_digits_only;
      Alcotest.test_case "split head and a pipelined request" `Quick
        test_split_head_and_pipelined_request;
    ]
    @ at_workers "chunked or repeated-length ingest is refused"
        test_ingest_framing_rejected
    @ [
      Alcotest.test_case "concurrent submitters equal per-key detectors"
        `Quick (test_concurrent_submitters ~shards:1);
      Alcotest.test_case
        "4 shards: concurrent submitters equal per-key detectors" `Quick
        (test_concurrent_submitters ~shards:4);
      Alcotest.test_case "a raise mid-batch releases locks and counts"
        `Quick test_raise_mid_batch;
      Alcotest.test_case "access log pins the shards a batch routes to"
        `Quick test_access_log_shards;
    ] )
