(** The TCP listener shared by every line-protocol front end: the
    admission server ({!Server.serve_tcp}) and the cluster dispatcher
    ([E2e_cluster.Dispatcher.serve]).

    It owns everything about a connection except what is said on it:
    the listening socket, the accept pool, the shutdown handle and the
    per-connection skeleton — greeting, {!Wire} writer thread, the
    front end's reader, then an ordered teardown.  Each front end
    supplies only its greeting and its per-connection reader, so a
    hardening fix here covers both. *)

val resolve_host : string -> Unix.inet_addr
(** Resolve a dotted quad ([127.0.0.1]) or a hostname ([localhost])
    to an IPv4 address.
    @raise Failure when the name does not resolve. *)

type control
(** External-shutdown handle for a running {!serve}: the in-process
    analogue of killing the serving process.  Create one with
    {!control}, pass it to {!serve}, and {!shutdown} from any thread —
    the listener stops accepting and every live connection is reset,
    so {!serve} returns.  The cluster harnesses use it to kill shards
    deterministically. *)

val control : unit -> control

val shutdown : control -> unit
(** Stop the listener attached to this handle: wakes blocked accepts by
    shutting the listening socket down and resets every live
    connection (peers see a closed socket, exactly like a process
    kill).  A {!serve} started on an already-stopped handle returns at
    once, without calling its [ready].  Idempotent; safe from any
    thread. *)

val serve :
  ?host:string ->
  ?max_connections:int ->
  ?accept_pool:int ->
  ?window:int ->
  ?ready:(int -> unit) ->
  ?control:control ->
  greeting:string ->
  port:int ->
  (Wire.conn -> Wire.reader -> unit) ->
  unit
(** [serve ~greeting ~port reader] listens on [host:port] (default host
    127.0.0.1; [port = 0] binds an ephemeral port) and serves
    connections with [accept_pool] (default 4) accept domains, each
    owning one live connection at a time.  A connection gets
    [TCP_NODELAY], the [greeting] line, a {!Wire.conn} with a [window]
    (default 64) reply window and its writer thread; then [reader]
    runs in the accept domain until it queues the connection's [End]
    cell.  Teardown joins the writer before closing the socket, so
    every buffered reply — a [quit] farewell included — is flushed.

    [ready] is called with the bound port once the listener accepts
    connections.  [max_connections] bounds the {e total} number of
    connections accepted across the pool, after which [serve] returns
    once they end; omitted, it serves until [control] is shut down.

    Robustness: transient accept failures ([EINTR], [ECONNABORTED],
    [EAGAIN]) are retried, resource-pressure failures ([EMFILE] and
    friends) back off and retry, a shut-down listener ([EBADF],
    [EINVAL]) stops the pool, [SIGPIPE] is ignored while serving (a
    vanished peer surfaces as a write error on its own connection), a
    connection whose setup fails is closed without taking the pool
    down, and a reader that raises ends only its own connection. *)

val spawn : (ready:(int -> unit) -> unit) -> int * unit Domain.t
(** [spawn serve] runs the front end [serve] (typically
    [fun ~ready -> Server.serve_tcp ~ready ~port:0 stripes], or the same
    over {!serve} or [E2e_cluster.Dispatcher.serve]) in a new domain,
    waits for it to call [ready], and returns the bound port and the
    domain to join.  A front end that ends without calling [ready] never leaves
    the caller waiting: its exception is re-raised (a failed bind
    raises its [Unix.Unix_error], [EADDRINUSE] included), and a clean
    return (an already-stopped control) raises [Failure]. *)
