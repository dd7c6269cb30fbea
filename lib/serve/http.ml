(* Minimal dependency-free HTTP/1.1 responder over Unix sockets. One
   accept loop serves every worker count: [serve] runs it on the calling
   domain and on [workers - 1] spawned domains, each accepting on the
   shared listening socket, so connections beyond the busy workers wait
   in the kernel accept backlog. With one worker every route is
   serialized through one thread and the handler may touch
   non-thread-safe state without locks; with more, the handler must be
   safe to run concurrently (the sharded service is). A client sending
   [Connection: keep-alive] reuses its connection for up to
   [keepalive_limit] requests, each under the same I/O deadline. *)

let keepalive_c = Obs.counter "serve.keepalive.reuses"

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

let reason_of = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

(* A peer that resets the connection mid-write must surface as a
   catchable EPIPE from [Unix.write], not as SIGPIPE — the signal's
   default disposition would kill the whole process. Forced before any
   socket I/O ([listen] and the clients). An Atomic, not a Lazy: lazy
   forcing is not safe under domain races, and clients run on many. *)
let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
    | () -> ()
    | exception Invalid_argument _ -> (* no SIGPIPE on this platform *) ()

let response ?(status = 200) ?(content_type = "text/plain; charset=utf-8")
    ?(headers = []) body =
  { status; content_type; headers; body }

(* Bounds chosen for a loopback telemetry port: enough for any scrape or
   reasonable ingest batch, small enough that a misdirected upload cannot
   balloon the process. *)
let max_head_bytes = 64 * 1024
let max_body_bytes = 16 * 1024 * 1024

(* Keep-alive bounds: a connection is recycled at most this many times by
   default, so one chatty client cannot monopolize a worker forever. *)
let default_keepalive_limit = 100

(* First index [>= from] at which [sub] occurs in the [n] bytes that
   [get] reads, compared in place. *)
let index_sub ~get n sub from =
  let m = String.length sub in
  let rec matches i j =
    j = m || (Char.equal (get (i + j)) sub.[j] && matches i (j + 1))
  in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some i else go (i + 1)
  in
  go from

let find_sub s sub from =
  index_sub ~get:(String.get s) (String.length s) sub from

(* RFC 9110 section 8.6: Content-Length = 1*DIGIT. [int_of_string_opt]
   would also take "0x9", "0b1001", "+9", "1_0" and the like; a value
   past [max_int] is rejected as well. *)
let content_length_of v =
  let n = String.length v in
  let rec go i acc =
    if i = n then Some acc
    else
      match v.[i] with
      | '0' .. '9' as c ->
          let d = Char.code c - Char.code '0' in
          if acc > (max_int - d) / 10 then None else go (i + 1) ((acc * 10) + d)
      | _ -> None
  in
  if n = 0 then None else go 0 0

(* [b.[0] .. b.[n - 1]], however many writes it takes *)
let write_all fd b n =
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write_string fd s =
  write_all fd (Bytes.unsafe_of_string s) (String.length s)

(* A connection's byte buffers, kept for its life so that a request does
   not pay for fresh ones: [input.[0] .. input.[filled - 1]] is read and
   not yet consumed (a pipelining client's next request may already be
   there), and [output] holds the response being written. Either grows
   as a message needs and shrinks back after a large one. *)
type conn_buf = {
  mutable input : Bytes.t;
  mutable filled : int;
  mutable output : Bytes.t;
}

let small_buf = 4096

let conn_buf () =
  {
    input = Bytes.create small_buf;
    filled = 0;
    output = Bytes.create small_buf;
  }

(* [b] with room for [n] bytes, its first [keep] bytes kept *)
let ensure b n ~keep =
  if Bytes.length b >= n then b
  else begin
    let b' = Bytes.create (max n (2 * Bytes.length b)) in
    Bytes.blit b 0 b' 0 keep;
    b'
  end

(* The head and the body go out in one write, copied once into the
   connection's output buffer. *)
let write_response ?(keep_alive = false) cb fd (r : response) =
  let head =
    "HTTP/1.1 " :: string_of_int r.status :: " " :: reason_of r.status
    :: "\r\nContent-Type: " :: r.content_type :: "\r\nContent-Length: "
    :: string_of_int (String.length r.body) :: "\r\n"
    :: List.concat_map (fun (k, v) -> [ k; ": "; v; "\r\n" ]) r.headers
    @ [ "Connection: "; (if keep_alive then "keep-alive" else "close");
        "\r\n\r\n" ]
  in
  let n =
    List.fold_left (fun n s -> n + String.length s) (String.length r.body) head
  in
  let out = ensure cb.output n ~keep:0 in
  let at =
    List.fold_left
      (fun at s ->
        Bytes.blit_string s 0 out at (String.length s);
        at + String.length s)
      0 head
  in
  Bytes.blit_string r.body 0 out at (String.length r.body);
  cb.output <- (if Bytes.length out > max_head_bytes then cb.output else out);
  write_all fd out n

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty request"
  | request_line :: header_lines -> (
      let strip_cr s =
        let n = String.length s in
        if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
      in
      match
        String.split_on_char ' ' (strip_cr request_line)
        |> List.filter (fun t -> not (String.equal t ""))
      with
      | meth :: path :: _ ->
          let headers =
            List.filter_map
              (fun line ->
                let line = strip_cr line in
                match String.index_opt line ':' with
                | None -> None
                | Some i ->
                    Some
                      ( String.lowercase_ascii
                          (String.trim (String.sub line 0 i)),
                        String.trim
                          (String.sub line (i + 1)
                             (String.length line - i - 1)) ))
              header_lines
          in
          Ok (meth, path, headers)
      | _ -> Error "malformed request line")

let header_value headers name =
  List.find_map
    (fun (n, v) -> if String.equal n name then Some v else None)
    headers

exception Read_timed_out

type received =
  | Req of request
  | Closed  (* clean EOF between requests: nothing buffered, peer gone *)
  | Fail of int * string  (* status to answer before closing *)

(* Read one full request from [fd] into the connection's input buffer,
   which may already hold bytes read past the previous request on a
   kept-alive connection (a pipelining client's next request must not be
   dropped) and is left holding any overrun on return: the body is the
   one copy made. Failures carry the status to answer with (400 for
   malformed input or a repeated Content-Length, 408 for a read timeout,
   411 for a body framed by Transfer-Encoding, which this server does not
   decode, 413 for oversized bodies). A timeout relies on the caller
   having set SO_RCVTIMEO on [fd]; without it reads block indefinitely. *)
let recv_request fd cb =
  let refill () =
    cb.input <- ensure cb.input (cb.filled + 1) ~keep:cb.filled;
    match
      Unix.read fd cb.input cb.filled (Bytes.length cb.input - cb.filled)
    with
    | n ->
        cb.filled <- cb.filled + n;
        n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise Read_timed_out
  in
  (* Each refill resumes the terminator scan 3 bytes before the old end,
     in case a "\r\n\r\n" straddles the two reads, so the whole head is
     scanned once. *)
  let rec head_end from =
    let n = cb.filled in
    match index_sub ~get:(Bytes.get cb.input) n "\r\n\r\n" from with
    | Some i -> Ok (i + 4)
    | None ->
        if n > max_head_bytes then Error (400, "request headers too large")
        else if refill () = 0 then
          if n = 0 then Error (0, "") (* clean close *)
          else Error (400, "truncated request")
        else head_end (max 0 (n - 3))
  in
  let finish status msg =
    if status = 0 then Closed else Fail (status, msg)
  in
  try
    match head_end 0 with
    | Error (status, msg) -> finish status msg
    | Ok body_start -> (
        match parse_head (Bytes.sub_string cb.input 0 (body_start - 4)) with
        | Error msg -> Fail (400, msg)
        | Ok (meth, path, headers) -> (
            (* Only Content-Length frames a body here. Reading a chunked
               body as empty, or trusting one of two lengths (RFC 9112
               section 6.3), would answer 200 for events never fed. *)
            let content_length =
              if List.exists
                   (fun (n, _) -> String.equal n "transfer-encoding")
                   headers
              then Error (411, "transfer-encoding not supported")
              else
                match
                  List.filter
                    (fun (n, _) -> String.equal n "content-length")
                    headers
                with
                | [] -> Ok 0
                | [ (_, v) ] -> (
                    match content_length_of v with
                    | Some n -> Ok n
                    | None -> Error (400, "bad content-length"))
                | _ -> Error (400, "repeated content-length")
            in
            match content_length with
            | Error (status, msg) -> Fail (status, msg)
            | Ok len when len > max_body_bytes -> Fail (413, "body too large")
            | Ok len ->
                let used = body_start + len in
                cb.input <- ensure cb.input used ~keep:cb.filled;
                let rec fill_body () =
                  if cb.filled >= used then begin
                    let body = Bytes.sub_string cb.input body_start len in
                    (* keep the overrun for the next request on this
                       connection, in a small buffer again after a large
                       body *)
                    let rest = cb.filled - used in
                    let keep =
                      if Bytes.length cb.input > max_head_bytes then
                        Bytes.create (max small_buf rest)
                      else cb.input
                    in
                    Bytes.blit cb.input used keep 0 rest;
                    cb.input <- keep;
                    cb.filled <- rest;
                    Req { meth; path; headers; body }
                  end
                  else if refill () = 0 then Fail (400, "truncated body")
                  else fill_body ()
                in
                fill_body ()))
  with Read_timed_out -> Fail (408, "request read timed out")

(* Live-connection registry: [stop] shuts down the read side of every
   connection currently being served, so a worker blocked reading an idle
   kept-alive socket wakes with EOF instead of wedging shutdown until its
   I/O deadline. All access takes [cm]. *)
type conns = {
  cm : Mutex.t;
  fds : (Unix.file_descr, unit) Hashtbl.t;
}

type t = {
  sock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  conns : conns;
}

let listen ?(backlog = 128) ~port () =
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock backlog;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  {
    sock;
    port;
    stopping = Atomic.make false;
    conns = { cm = Mutex.create (); fds = Hashtbl.create 16 };
  }

let port t = t.port
let stopping t = Atomic.get t.stopping

let track_conn t fd =
  Mutex.lock t.conns.cm;
  Hashtbl.replace t.conns.fds fd ();
  (* stop may have run between accept and here: shut the read side now so
     this connection cannot outlive shutdown by its full deadline *)
  if Atomic.get t.stopping then begin
    (* check: blocking - shutdown(2) never blocks; running under cm keeps a concurrently closed-and-recycled fd out *)
    match Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with
    | () -> ()
    | exception Unix.Unix_error _ -> ()
  end;
  Mutex.unlock t.conns.cm

let untrack_conn t fd =
  Mutex.lock t.conns.cm;
  Hashtbl.remove t.conns.fds fd;
  Mutex.unlock t.conns.cm

(* Per-connection I/O deadline. A client that connects and then sends
   nothing would otherwise pin a worker (and, with one worker, wedge
   every route and [stop], whose wake-up poke only unblocks [accept], not
   a read stuck inside a connection). *)
let default_io_timeout = 10.0

let wants_keep_alive (req : request) =
  match header_value req.headers "connection" with
  | Some v -> String.equal (String.lowercase_ascii v) "keep-alive"
  | None -> false

(* The response-write leg, timed into the request scope and the
   [serve.request.write] span even when the peer resets mid-write (the
   EPIPE propagates once the write is recorded). *)
let write_timed sc cb ~keep_alive fd (resp : response) =
  Obs.Request.set_status sc resp.status;
  Obs.Request.set_bytes_out sc (String.length resp.body);
  Obs.time Obs.Request.write (fun () -> write_response ~keep_alive cb fd resp)

(* One connection, possibly many requests: honor [Connection: keep-alive]
   up to [keepalive_limit] requests, each under the same I/O deadline.
   The response echoes the decision in its own Connection header, and a
   kept-alive turn counts into [serve.keepalive.reuses]. Closing is the
   default — our own one-shot client still drains to EOF.

   Every turn runs inside one [Obs.Request] scope: the request id is
   minted before the read, echoed in [X-Request-Id], and the turn's
   stages land in the scope as read, service (the handler), and write. A
   turn that ends in a clean keep-alive EOF never was a request: its
   scope is abandoned, producing no access-log line. *)
let handle_conn ~io_timeout ~keepalive_limit t handler fd =
  Fun.protect
    ~finally:(fun () ->
      untrack_conn t fd;
      match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
    (fun () ->
      track_conn t fd;
      if io_timeout > 0. then begin
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout
      end;
      let cb = conn_buf () in
      let rec turn served =
        let keep_going =
          Obs.Request.with_scope (fun sc ->
              let received =
                Obs.time Obs.Request.read (fun () ->
                    recv_request fd cb)
              in
              match received with
              | Closed ->
                  Obs.Request.abandon sc;
                  false
              | Fail (status, msg) ->
                  let resp =
                    response ~status
                      ~headers:[ ("X-Request-Id", Obs.Request.id sc) ]
                      (msg ^ "\n")
                  in
                  write_timed sc cb ~keep_alive:false fd resp;
                  false
              | Req req ->
                  (* a request after the first means the connection was
                     actually reused, not merely left open *)
                  if served > 0 then Obs.incr keepalive_c;
                  Obs.Request.set_route sc ~meth:req.meth ~path:req.path;
                  Obs.Request.set_bytes_in sc (String.length req.body);
                  let resp =
                    Obs.time Obs.Request.service (fun () -> handler req)
                  in
                  let keep_alive =
                    wants_keep_alive req
                    && served + 1 < keepalive_limit
                    && not (Atomic.get t.stopping)
                  in
                  Obs.Request.set_keep_alive sc keep_alive;
                  let resp =
                    {
                      resp with
                      headers =
                        ("X-Request-Id", Obs.Request.id sc) :: resp.headers;
                    }
                  in
                  write_timed sc cb ~keep_alive fd resp;
                  keep_alive)
        in
        if keep_going then turn (served + 1)
      in
      turn 0)

let swallow_conn_error handler fd =
  (* A client that vanished mid-request (reset, timeout) must not take
     the server down; [handle_conn] has already closed the socket. *)
  match handler fd with () -> () | exception Unix.Unix_error _ -> ()

(* Wake one domain blocked in [accept] with a throwaway loopback
   connection. *)
let poke t =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | s -> (
      match
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
      with
      | () | (exception Unix.Unix_error _) -> (
          match Unix.close s with
          | () -> ()
          | exception Unix.Unix_error _ -> ()))

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake reads blocked inside in-flight (kept-alive) connections: shut
       their receive side so the next read sees EOF while the response
       path stays writable. *)
    Mutex.lock t.conns.cm;
    Hashtbl.iter
      (fun fd () ->
        (* check: blocking - shutdown(2) never blocks; iterating under cm keeps untrack_conn's close/recycle out *)
        match Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
      t.conns.fds;
    Mutex.unlock t.conns.cm;
    (* Every worker may be parked in [accept]: wake one, and each worker
       that wakes into the stop flag pokes the next (see [serve]). *)
    poke t
  end

(* Run every thunk, even past one that raises, then re-raise the last
   failure: a worker that dies must not leave its siblings unjoined. *)
let rec run_all = function
  | [] -> ()
  | f :: rest -> (
      match f () with
      | () -> run_all rest
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          run_all rest;
          Printexc.raise_with_backtrace e bt)

(* The calling domain and [workers - 1] spawned ones run the same loop:
   accept on the shared listening socket, serve that connection, repeat.
   The kernel accept backlog is the only connection buffer: when every
   worker is busy new connections wait there, so back-pressure reaches
   clients as connect latency rather than unbounded buffering.

   Shutdown is a chain: [stop] pokes the listener once, and a worker that
   accepts while stopping closes that socket and pokes again, so every
   worker parked in [accept] wakes in turn. Each loop calls [stop] as it
   ends, normally or by an exception (EMFILE from [accept], say), so one
   failed worker stops the rest instead of leaving them parked; the
   failure is re-raised once all are joined. *)
let serve ?(io_timeout = default_io_timeout)
    ?(keepalive_limit = default_keepalive_limit) ?(workers = 1) t handler =
  if workers < 1 then invalid_arg "Http.serve: workers must be >= 1";
  let loop () =
    Fun.protect
      ~finally:(fun () -> stop t)
      (fun () ->
        while not (Atomic.get t.stopping) do
          match Unix.accept t.sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | fd, _ ->
              if Atomic.get t.stopping then begin
                (match Unix.close fd with
                | () -> ()
                | exception Unix.Unix_error _ -> ());
                poke t
              end
              else
                swallow_conn_error
                  (handle_conn ~io_timeout ~keepalive_limit t handler)
                  fd
        done)
  in
  let spawned = List.init (workers - 1) (fun _ -> Domain.spawn loop) in
  Fun.protect
    ~finally:(fun () ->
      match Unix.close t.sock with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
    (fun () -> run_all (loop :: List.map (fun d () -> Domain.join d) spawned))

(* --- tiny loopback clients, used by tests and the bench loops --- *)

let parse_response raw =
  match find_sub raw "\r\n\r\n" 0 with
  | None -> Error "malformed response: no header terminator"
  | Some i -> (
      let body = String.sub raw (i + 4) (String.length raw - i - 4) in
      let status_line =
        match find_sub raw "\r\n" 0 with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      match
        String.split_on_char ' ' status_line
        |> List.filter (fun t -> not (String.equal t ""))
      with
      | _http :: code :: _ -> (
          match int_of_string_opt code with
          | Some status -> Ok (status, body)
          | None -> Error "malformed response: bad status code")
      | _ -> Error "malformed response: bad status line")

(* Like [parse_response] but keeps the response headers (lowercased
   names), for callers that need e.g. [x-request-id]. *)
let parse_response_full raw =
  match find_sub raw "\r\n\r\n" 0 with
  | None -> Error "malformed response: no header terminator"
  | Some i -> (
      let body = String.sub raw (i + 4) (String.length raw - i - 4) in
      (* [parse_head] reads the status line as "method path": for a
         response that yields the HTTP version and the status code *)
      match parse_head (String.sub raw 0 i) with
      | Error e -> Error e
      | Ok (_http, code, headers) -> (
          match int_of_string_opt code with
          | Some status -> Ok (status, headers, body)
          | None -> Error "malformed response: bad status code"))

let raw_request ?(body = "") ~port ~meth path =
  ignore_sigpipe ();
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      match Unix.close s with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_string s
        (Printf.sprintf
           "%s %s HTTP/1.1\r\n\
            Host: localhost\r\n\
            Content-Length: %d\r\n\
            Connection: close\r\n\
            \r\n\
            %s"
           meth path (String.length body) body);
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read s chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let request ?body ~port ~meth path =
  parse_response (raw_request ?body ~port ~meth path)

let request_full ?body ~port ~meth path =
  parse_response_full (raw_request ?body ~port ~meth path)

let get ~port path = request ~port ~meth:"GET" path
let post ~port path body = request ~body ~port ~meth:"POST" path

(* A persistent (keep-alive) client: one TCP connection, many requests,
   responses framed by Content-Length instead of EOF. This is the client
   side of the keep-alive satellite — the bench uses it to measure the
   per-request connection setup the feature removes. *)
module Client = struct
  type conn = { fd : Unix.file_descr; pending : Buffer.t }

  let connect ~port =
    ignore_sigpipe ();
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> ()
    | exception e ->
        (match Unix.close fd with
        | () -> ()
        | exception Unix.Unix_error _ -> ());
        raise e);
    { fd; pending = Buffer.create 1024 }

  let close c =
    match Unix.close c.fd with
    | () -> ()
    | exception Unix.Unix_error _ -> ()

  let read_until c stop_at =
    (* grow [pending] until [stop_at pending] returns a split point *)
    let chunk = Bytes.create 4096 in
    let rec go () =
      match stop_at (Buffer.contents c.pending) with
      | Some i -> Ok i
      | None ->
          let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
          if n = 0 then Error "connection closed mid-response"
          else begin
            Buffer.add_subbytes c.pending chunk 0 n;
            go ()
          end
    in
    go ()

  let take c n =
    let all = Buffer.contents c.pending in
    let s = String.sub all 0 n in
    Buffer.clear c.pending;
    Buffer.add_substring c.pending all n (String.length all - n);
    s

  let request_exn ?(body = "") c ~meth path =
    write_string c.fd
      (Printf.sprintf
         "%s %s HTTP/1.1\r\n\
          Host: localhost\r\n\
          Content-Length: %d\r\n\
          Connection: keep-alive\r\n\
          \r\n\
          %s"
         meth path (String.length body) body);
    match read_until c (fun s -> find_sub s "\r\n\r\n" 0) with
    | Error _ as e -> e
    | Ok head_len -> (
        let head = take c (head_len + 4) in
        let content_length =
          match parse_head head with
          | Error _ -> None
          | Ok (_, _, headers) ->
              Option.bind (header_value headers "content-length")
                content_length_of
        in
        match content_length with
        | None -> Error "malformed response: no content-length"
        | Some len -> (
            match
              read_until c (fun s ->
                  if String.length s >= len then Some len else None)
            with
            | Error _ as e -> e
            | Ok _ -> (
                let body = take c len in
                match parse_response (head ^ body) with
                | Ok (status, _) -> Ok (status, body)
                | Error _ as e -> e)))

  (* A server that closed the connection (keep-alive cap, shutdown)
     surfaces as EPIPE/ECONNRESET here; the mli promises [Error], not an
     exception, so the caller can reconnect. *)
  let request ?(body = "") c ~meth path =
    try request_exn ~body c ~meth path
    with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

  let get c path = request c ~meth:"GET" path
  let post c path body = request ~body c ~meth:"POST" path
end
