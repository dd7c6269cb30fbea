(* The benchmark's own tests: percentiles on fixed inputs, and the open-loop
   generator against a stub server that stalls once. Run with
   `dune build @perfbench/selftest` or `python3 perfbench/run.py --self-test`. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let feq a b = Float.abs (a -. b) < 1e-9

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50" (feq (Stats.percentile xs 50.) 50.);
  check "p99 of 1..100 is 99" (feq (Stats.percentile xs 99.) 99.);
  check "p100 of 1..100 is 100" (feq (Stats.percentile xs 100.) 100.);
  check "p0 is the minimum" (feq (Stats.percentile xs 0.) 1.);
  check "p50 of [5;1;3] is 3" (feq (Stats.percentile [| 5.; 1.; 3. |] 50.) 3.);
  check "p50 of [1;2;3;4] is 2 (nearest rank)" (feq (Stats.percentile [| 4.; 3.; 2.; 1. |] 50.) 2.);
  check "a failed request ranks above every limit"
    (Stats.percentile [| 1.; 2.; infinity |] 99. = infinity);
  check "empty input is nan" (Float.is_nan (Stats.percentile [||] 50.));
  check "median of 1000 samples" (feq (Stats.median (Array.init 1000 float_of_int)) 499.);
  (* the exact ns histogram agrees with sorting, across its raw tail *)
  let prng = Whynot.Numeric.Prng.create 7 in
  let samples =
    Array.init 5000 (fun i ->
        if i mod 50 = 0 then Stats.hist_cap + Whynot.Numeric.Prng.int prng 1_000_000
        else Whynot.Numeric.Prng.int prng 20_000)
  in
  let h = Stats.hist () in
  Array.iter (Stats.record h) samples;
  let fs = Array.map float_of_int samples in
  List.iter
    (fun p ->
      check
        (Printf.sprintf "histogram p%g equals sorted p%g" p p)
        (feq (Stats.hist_percentile h p) (Stats.percentile fs p)))
    [ 1.; 50.; 97.9; 98.; 99.; 99.9; 100. ];
  check "histogram mean" (feq (Stats.hist_mean h) (Stats.mean fs))

(* A keep-alive HTTP stub in a child process. It answers every request at
   once, except request number [stall_at], before which it sleeps
   [stall_s] seconds with every connection waiting. *)
let stub sock ~stall_at ~stall_s =
  let conns = ref [] and pending = Hashtbl.create 4 and count = ref 0 in
  let reply = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nok\n" in
  let chunk = Bytes.create 4096 in
  let rec serve fd data =
    match Loadgen.find_sub (Bytes.of_string data) ~from:0 ~until:(String.length data) "\r\n\r\n" with
    | -1 -> data
    | e ->
        incr count;
        if !count = stall_at then Unix.sleepf stall_s;
        ignore (Unix.write_substring fd reply 0 (String.length reply));
        serve fd (String.sub data (e + 4) (String.length data - e - 4))
  in
  while true do
    let ready, _, _ = Unix.select (sock :: !conns) [] [] (-1.) in
    List.iter
      (fun fd ->
        if fd = sock then begin
          let c, _ = Unix.accept sock in
          conns := c :: !conns;
          Hashtbl.replace pending c ""
        end
        else
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 | (exception Unix.Unix_error _) ->
              Unix.close fd;
              conns := List.filter (fun c -> c <> fd) !conns
          | k -> Hashtbl.replace pending fd (serve fd (Hashtbl.find pending fd ^ Bytes.sub_string chunk 0 k)))
      ready
  done

let test_stall () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 16;
  let port = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let stall_s = 0.3 in
  match Unix.fork () with
  | 0 ->
      (try stub sock ~stall_at:40 ~stall_s with _ -> ());
      Unix._exit 0
  | child ->
      Unix.close sock;
      let spacing = 5_000_000 in
      let items = Array.init 200 (fun i -> { Loadgen.kind = 0; step = 0; at_ns = i * spacing; size = 0 }) in
      let req = "GET / HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n" in
      let r = Loadgen.run ~max_conns:2 ~port ~request:(fun ~slot:_ _ -> req) items in
      Unix.kill child Sys.sigkill;
      ignore (Unix.waitpid [] child);
      check "every request answered" (Array.for_all (fun s -> s = 200) r.status);
      let stall_ns = int_of_float (stall_s *. 1e9) in
      (* the stalled request: answered [stall_s] after it actually went out *)
      let stalled =
        List.find_opt
          (fun i -> r.done_ns.(i) - r.sent_ns.(i) >= stall_ns - 20_000_000)
          (List.init (Array.length items) Fun.id)
      in
      check "the stall is seen" (stalled <> None);
      match stalled with
      | None -> ()
      | Some s ->
          let stall_end = r.sent_ns.(s) + stall_ns in
          let behind =
            List.filter
              (fun i ->
                let at = r.t0 + items.(i).at_ns in
                at > r.sent_ns.(s) && at < stall_end - 20_000_000)
              (List.init (Array.length items) Fun.id)
          in
          check "requests were scheduled behind the stall" (List.length behind >= 40);
          check "every request scheduled behind the stall carries it in its latency"
            (List.for_all
               (fun i -> Loadgen.latency_ns r items i >= stall_end - (r.t0 + items.(i).at_ns) - 5_000_000)
               behind);
          let late = List.fold_left (fun acc i -> max acc (r.sent_ns.(i) - (r.t0 + items.(i).at_ns))) 0 behind in
          check "the generator reports how late it ran" (late >= stall_ns / 2);
          let after =
            List.filter (fun i -> r.t0 + items.(i).at_ns > stall_end + 100_000_000) (List.init (Array.length items) Fun.id)
          in
          check "latency recovers once the backlog drains"
            (List.for_all (fun i -> Loadgen.latency_ns r items i < 50_000_000) after)

let () =
  test_percentiles ();
  test_stall ();
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
  else print_endline "all passed"
