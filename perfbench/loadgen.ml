(* Open-loop HTTP/1.1 load generator: one process, one thread, at most
   [max_conns] keep-alive connections to 127.0.0.1.

   Every request has an intended send time fixed before the run starts.
   When that time comes the request joins a queue and goes out on the
   first idle open connection, as a client pool does; a new connection is
   opened only when no open one is idle. When every connection is busy
   the request waits in the queue, and that wait counts in its latency:
   latency runs from the intended send time, never from the actual send,
   so a server stall shows in every request scheduled behind it
   (no coordinated omission). How late each request actually went out is
   recorded too. A connection the server closes (its keep-alive cap) is
   reopened on next use.

   Responses are framed by Content-Length and read into one growable
   buffer per connection, so reading costs are linear in response size. *)

type item = {
  kind : int;  (** opaque to the generator: the caller's request class *)
  step : int;  (** offered-rate step; a change of step is a step boundary *)
  at_ns : int;  (** intended send time, from the start of the run *)
  size : int;  (** the caller's payload size, e.g. lines in the batch *)
}

type result = {
  t0 : int;  (** monotonic ns at which the schedule starts *)
  released : int;  (** items whose send time came before the run stopped *)
  sent_ns : int array;  (** -1 if never sent *)
  done_ns : int array;  (** -1 if unanswered, refused or reset *)
  status : int array;  (** 0 if unanswered, refused or reset *)
  request_id : string array;  (** the server's X-Request-Id *)
  fresh : bool array;  (** first request on its connection *)
  slot : int array;  (** connection slot used *)
  matches : int array;  (** [{"type":"match"] verdicts in the body *)
  body_bytes : int array;
  conns_opened : int;
  boundaries : (int * int) list;
      (** per step boundary, oldest first: (step that ended, requests
          queued or in flight) *)
}

let latency_ns r items i =
  if r.status.(i) = 0 then max_int else r.done_ns.(i) - (r.t0 + items.(i).at_ns)

type conn = {
  cslot : int;
  mutable fd : Unix.file_descr option;
  mutable cfresh : bool;
  mutable inflight : int;  (* item index, -1 when idle *)
  mutable out : string;
  mutable out_off : int;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable scan : int;
  mutable head_end : int;  (* -1 until the response head is complete *)
  mutable body_len : int;
  mutable code : int;
  mutable close_after : bool;
  mutable rid : string;
}

let new_conn cslot =
  {
    cslot;
    fd = None;
    cfresh = true;
    inflight = -1;
    out = "";
    out_off = 0;
    buf = Bytes.create 65536;
    len = 0;
    scan = 0;
    head_end = -1;
    body_len = 0;
    code = 0;
    close_after = false;
    rid = "";
  }

let reset_response c =
  c.len <- 0;
  c.scan <- 0;
  c.head_end <- -1;
  c.body_len <- 0;
  c.code <- 0;
  c.close_after <- false;
  c.rid <- ""

let find_sub buf ~from ~until pat =
  let m = String.length pat in
  let rec go i =
    if i + m > until then -1
    else
      let rec eq k = k = m || (Bytes.get buf (i + k) = pat.[k] && eq (k + 1)) in
      if eq 0 then i else go (i + 1)
  in
  go from

let count_sub buf ~from ~until pat =
  let rec go i acc =
    let j = find_sub buf ~from:i ~until pat in
    if j < 0 then acc else go (j + String.length pat) (acc + 1)
  in
  go from 0

let parse_head c head =
  match String.split_on_char '\n' head with
  | [] -> ()
  | status_line :: headers ->
      (match String.split_on_char ' ' status_line with
      | _ :: code :: _ -> c.code <- Option.value ~default:0 (int_of_string_opt code)
      | _ -> ());
      List.iter
        (fun line ->
          match String.index_opt line ':' with
          | None -> ()
          | Some k ->
              let name = String.lowercase_ascii (String.trim (String.sub line 0 k)) in
              let value = String.trim (String.sub line (k + 1) (String.length line - k - 1)) in
              if name = "content-length" then
                c.body_len <- Option.value ~default:0 (int_of_string_opt value)
              else if name = "connection" then
                c.close_after <- String.lowercase_ascii value = "close"
              else if name = "x-request-id" then c.rid <- value)
        headers

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.set_nonblock fd
  with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* How long the run waits for answers once nothing is left to send. *)
let drain_ns = 15_000_000_000

let run ?(max_conns = 2) ?(marks = [||]) ?(mark = fun _ -> ()) ?(stop_age_ns = max_int) ~port
    ~(request : slot:int -> int -> string) (items : item array) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = Array.length items in
  let sent_ns = Array.make n (-1)
  and done_ns = Array.make n (-1)
  and status = Array.make n 0
  and request_id = Array.make n ""
  and fresh = Array.make n false
  and slot = Array.make n (-1)
  and matches = Array.make n 0
  and body_bytes = Array.make n 0 in
  let conns = Array.init max_conns new_conn in
  let queue = Queue.create () in
  let opened = ref 0 in
  let finished = ref 0 and dispatched = ref 0 in
  let next = ref 0 and limit = ref n in
  let next_mark = ref 0 in
  let cur_step = ref (if n > 0 then items.(0).step else 0) in
  let boundaries = ref [] in
  let t0 = Stats.now_ns () + 5_000_000 in
  let close c =
    (match c.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    c.fd <- None;
    reset_response c;
    if c.inflight >= 0 then begin
      incr finished;
      c.inflight <- -1
    end
  in
  let complete c =
    let i = c.inflight in
    done_ns.(i) <- Stats.now_ns ();
    status.(i) <- c.code;
    request_id.(i) <- c.rid;
    body_bytes.(i) <- c.body_len;
    matches.(i) <-
      count_sub c.buf ~from:c.head_end ~until:(c.head_end + c.body_len)
        "\"type\":\"match\"";
    incr finished;
    c.inflight <- -1;
    let close_after = c.close_after in
    reset_response c;
    if close_after then close c
  in
  let parse c =
    if c.head_end < 0 then begin
      let e = find_sub c.buf ~from:(max 0 (c.scan - 3)) ~until:c.len "\r\n\r\n" in
      if e < 0 then c.scan <- c.len
      else begin
        c.head_end <- e + 4;
        parse_head c (Bytes.sub_string c.buf 0 e |> String.split_on_char '\r' |> String.concat "")
      end
    end;
    if c.head_end >= 0 && c.len >= c.head_end + c.body_len then complete c
  in
  let try_read c =
    match c.fd with
    | None -> ()
    | Some fd -> (
        if c.len = Bytes.length c.buf then begin
          let b = Bytes.create (2 * Bytes.length c.buf) in
          Bytes.blit c.buf 0 b 0 c.len;
          c.buf <- b
        end;
        match Unix.read fd c.buf c.len (Bytes.length c.buf - c.len) with
        | 0 -> close c
        | k ->
            c.len <- c.len + k;
            (* bytes on an idle connection: the server timed it out *)
            if c.inflight < 0 then close c else parse c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> close c)
  in
  let try_write c =
    match c.fd with
    | None -> ()
    | Some fd -> (
        let len = String.length c.out in
        try
          while c.out_off < len do
            c.out_off <- c.out_off + Unix.single_write_substring fd c.out c.out_off (len - c.out_off)
          done
        with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | Unix.Unix_error _ -> close c)
  in
  (* the first idle open connection; else a closed slot to (re)open *)
  let available () =
    match Array.find_opt (fun c -> c.fd <> None && c.inflight < 0) conns with
    | Some c -> Some c
    | None -> Array.find_opt (fun c -> c.fd = None) conns
  in
  let dispatch c i =
    incr dispatched;
    if c.fd = None then begin
      c.fd <- connect port;
      c.cfresh <- true;
      incr opened
    end;
    sent_ns.(i) <- Stats.now_ns ();
    slot.(i) <- c.cslot;
    match c.fd with
    | None -> incr finished (* refused *)
    | Some _ ->
        fresh.(i) <- c.cfresh;
        c.cfresh <- false;
        c.inflight <- i;
        c.out <- request ~slot:c.cslot i;
        c.out_off <- 0;
        try_write c
  in
  let outstanding () =
    let oldest = ref max_int and count = ref (Queue.length queue) in
    Queue.iter (fun i -> oldest := min !oldest items.(i).at_ns) queue;
    Array.iter
      (fun c ->
        if c.inflight >= 0 then begin
          incr count;
          oldest := min !oldest items.(c.inflight).at_ns
        end)
      conns;
    (!count, !oldest)
  in
  let drain_deadline = ref max_int in
  while
    (!next < !limit || (not (Queue.is_empty queue)) || !finished < !dispatched)
    && Stats.now_ns () < !drain_deadline
  do
    let now = Stats.now_ns () in
    while !next_mark < Array.length marks && now >= t0 + marks.(!next_mark) do
      mark !next_mark;
      incr next_mark
    done;
    while !next < !limit && t0 + items.(!next).at_ns <= now do
      let it = items.(!next) in
      if it.step <> !cur_step then begin
        let count, oldest = outstanding () in
        let age = if count = 0 then 0 else now - (t0 + oldest) in
        boundaries := (!cur_step, count) :: !boundaries;
        cur_step := it.step;
        (* the backlog outgrew the stop age: this step is past the knee
           already, so offer no higher rate *)
        if age > stop_age_ns then limit := !next
      end;
      if !next < !limit then begin
        Queue.push !next queue;
        incr next
      end
    done;
    let rec drain_queue () =
      if not (Queue.is_empty queue) then
        match available () with
        | Some c ->
            dispatch c (Queue.pop queue);
            drain_queue ()
        | None -> ()
    in
    drain_queue ();
    if !next >= !limit && Queue.is_empty queue then begin
      (* nothing more to send: release idle connections so a server that
         holds one connection at a time moves on to the other *)
      Array.iter (fun c -> if c.fd <> None && c.inflight < 0 then close c) conns;
      if !drain_deadline = max_int then drain_deadline := now + drain_ns
    end;
    let rd = Array.fold_left (fun acc c -> match c.fd with Some fd -> fd :: acc | None -> acc) [] conns in
    let wr =
      Array.fold_left
        (fun acc c ->
          match c.fd with
          | Some fd when c.out_off < String.length c.out && c.inflight >= 0 -> fd :: acc
          | _ -> acc)
        [] conns
    in
    let wake =
      let w = ref (now + 50_000_000) in
      if !next < !limit then w := min !w (t0 + items.(!next).at_ns);
      if !next_mark < Array.length marks then w := min !w (t0 + marks.(!next_mark));
      !w
    in
    let timeout = Float.max 0. (float_of_int (wake - now) /. 1e9) in
    match Unix.select rd wr [] timeout with
    | r, w, _ ->
        Array.iter
          (fun c ->
            match c.fd with
            | Some fd when List.memq fd w -> try_write c
            | _ -> ())
          conns;
        Array.iter
          (fun c ->
            match c.fd with
            | Some fd when List.memq fd r -> try_read c
            | _ -> ())
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* whatever is still queued or in flight stays unanswered *)
  Array.iter close conns;
  Array.iteri (fun k _ -> if k >= !next_mark then mark k) marks;
  {
    t0;
    released = !next;
    sent_ns;
    done_ns;
    status;
    request_id;
    fresh;
    slot;
    matches;
    body_bytes;
    conns_opened = !opened;
    boundaries = List.rev !boundaries;
  }
