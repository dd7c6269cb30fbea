(** Minimal dependency-free HTTP/1.1 responder over Unix loopback sockets.

    One accept loop serves every worker count: {!serve} runs it on the
    calling domain and on [workers - 1] spawned domains, each accepting
    on the shared listening socket, so the kernel accept backlog is the
    only connection buffer. With one worker (the default) connections are
    served one at a time, so handlers may touch non-thread-safe state
    without locks; with more, handlers must be safe to run concurrently
    (the sharded service is). Connections honor [Connection: keep-alive]
    up to a per-connection request cap; the default remains
    close-after-one. {!stop} is the only cross-thread entry point. Binds
    127.0.0.1 only — this is a telemetry port, not a public server.

    Every request turn runs inside an {!Obs.Request} scope: a unique
    request id is minted before the read and echoed back in an
    [X-Request-Id] response header (on error responses too); the turn's
    stage timings — read, handler service, response write — are recorded
    into the scope (feeding the [serve.access] log line and tail
    capture), and the write also into the [serve.request.write] span
    metric with its [.duration_us] histogram. *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
      (** extra response headers (e.g. [Retry-After]); Content-Type,
          Content-Length and Connection are emitted by the server *)
  body : string;
}

val response :
  ?status:int -> ?content_type:string -> ?headers:(string * string) list ->
  string -> response
(** [status] defaults to 200, [content_type] to
    [text/plain; charset=utf-8], [headers] to []. *)

type t

val listen : ?backlog:int -> port:int -> unit -> t
(** Bind and listen on [127.0.0.1:port]; [~port:0] picks an ephemeral
    port (read it back with {!port}). [backlog] defaults to 128; it is the
    only buffer for connections that arrive while every worker is busy.
    @raise Unix.Unix_error when the port is taken. *)

val port : t -> int

val default_keepalive_limit : int
(** 100 requests per connection. *)

val serve :
  ?io_timeout:float ->
  ?keepalive_limit:int ->
  ?workers:int ->
  t ->
  (request -> response) ->
  unit
(** Serve until {!stop} is called (possibly from another thread or
    domain). The calling domain and [workers - 1] spawned domains
    ([workers] defaults to 1: nothing is spawned) each run the same loop:
    accept a connection on the shared listening socket, then serve its
    requests. Connections beyond the busy workers wait in the kernel
    accept backlog ({!listen}'s [backlog]), so back-pressure reaches
    clients as connect latency rather than unbounded buffering. Above one
    worker the handler runs concurrently and must be thread-safe.

    Malformed or oversized requests are answered with 400/413 without
    reaching the handler, and the connection is closed. Only
    [Content-Length] frames a body: a request carrying
    [Transfer-Encoding] is answered 411, and one with more than one
    [Content-Length] field 400. A connection idle for more than
    [io_timeout] seconds (default 10, [0.] disables) is answered 408 so
    one silent client cannot wedge a worker; client I/O errors are swallowed. A
    request carrying [Connection: keep-alive] keeps its connection open
    for up to [keepalive_limit] requests (default
    {!default_keepalive_limit}), each turn under the same [io_timeout];
    every reuse counts into the [serve.keepalive.reuses] counter. SIGPIPE
    is ignored process-wide on first use, so a peer that resets mid-write
    yields a catchable [EPIPE] instead of killing the process.

    On {!stop}, in-flight connections are finished (their read side is
    shut down so idle kept-alive sockets wake immediately) and every
    worker parked in [accept] is woken. Each worker's loop calls {!stop}
    as it ends, normally or by an exception (e.g. [EMFILE] from
    [accept]), so one failed worker stops the others. [serve] returns
    once every worker has been joined, closing the listening socket, and
    re-raises a worker's failure. @raise Invalid_argument on
    [workers < 1]. *)

val stopping : t -> bool

val stop : t -> unit
(** Ask the accept loops to exit: sets the stop flag, shuts down the read
    side of every in-flight connection, and wakes a blocked [accept] with
    a throwaway loopback connection — a worker woken into the stop flag
    wakes the next one the same way. Idempotent. *)

(** {1 Loopback clients}

    Blocking requests against [127.0.0.1]; used by the tests and the
    bench loops. @raise Unix.Unix_error when the connection is
    refused. *)

val request :
  ?body:string ->
  port:int ->
  meth:string ->
  string ->
  (int * string, string) result
(** One-shot: [request ~port ~meth path] opens a fresh connection, sends
    [Connection: close], drains to EOF and returns [(status, body)]. *)

val request_full :
  ?body:string ->
  port:int ->
  meth:string ->
  string ->
  (int * (string * string) list * string, string) result
(** Like {!request} but also returns the response headers (names
    lowercased, values trimmed) — e.g. to read back [x-request-id]. *)

val get : port:int -> string -> (int * string, string) result
val post : port:int -> string -> string -> (int * string, string) result
(** [post ~port path body]. *)

(** Persistent (keep-alive) client: one TCP connection, many requests,
    responses framed by [Content-Length]. The server closes the
    connection after its keep-alive cap or on shutdown; requests then
    return [Error]. Not thread-safe — one domain per [conn]. *)
module Client : sig
  type conn

  val connect : port:int -> conn
  (** @raise Unix.Unix_error when the connection is refused. *)

  val request :
    ?body:string -> conn -> meth:string -> string ->
    (int * string, string) result

  val get : conn -> string -> (int * string, string) result
  val post : conn -> string -> string -> (int * string, string) result
  val close : conn -> unit
end
