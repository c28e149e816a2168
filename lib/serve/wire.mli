(** Shared socket plumbing for the line-protocol transports.

    A bounded line reader over a raw [Unix.file_descr], and the
    per-connection reply machinery the concurrent transports are built
    on: an ordered queue of reply {e slots} (cells), a counting
    semaphore bounding how far a reader may run ahead of the writer,
    and a writer thread that batches every consecutive ready reply
    into one [write] call (writev-style coalescing — under pipelining
    a drained batch of replies costs one syscall, not one per line).

    Both {!Server.serve_tcp} and the cluster dispatcher
    ([E2e_cluster.Dispatcher]) use this module; the reply-ordering
    contract is identical on both: cells are written strictly in push
    order, and a reply slot blocks the writer until it is filled. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying on [EINTR].
    @raise Unix.Unix_error on a real write error. *)

val max_line : int
(** Request-line length cap (1 MiB): an oversized line is a protocol
    error, not an unbounded allocation. *)

type reader
(** Bounded buffered line reader over a raw fd. *)

val make_reader : Unix.file_descr -> reader

val read_line :
  reader -> [ `Line of string | `Eof | `Too_long | `Error of Unix.error ]
(** Next line (terminator stripped, trailing [\r] removed).  A partial
    final line at EOF is returned as a line.  A clean EOF is [`Eof]; a
    hard read error (reset, half-closed socket, …) is [`Error] so
    transports can account for it separately from orderly shutdown;
    a line longer than {!max_line} is [`Too_long].  [EINTR] retries
    internally.  When a whole line sits inside the chunk buffer it is
    built with a single copy (no accumulator round trip). *)

val ready_line :
  reader -> [ `Line of string | `Eof | `Too_long | `Error of Unix.error | `None ]
(** {!read_line} without waiting on the peer: a line whose terminator
    is already buffered, else further [read]s only while [select]
    reports the fd ready (data or EOF waiting — a regular file always
    is), and [`None] once finishing a line would block.  A session
    reader takes its chunk this way: every complete line the peer has
    already sent, and from a file the next lines in order. *)

type pending = { mutable line : string option }
(** A reply slot, filled exactly once with the rendered reply line. *)

type cell =
  | Out of pending  (** One reply, written once the slot is filled. *)
  | End of string option
      (** Final line (if any), then writer teardown. *)

type conn = {
  fd : Unix.file_descr;
  cmu : Mutex.t;
  filled : Condition.t;
  cells : cell Queue.t;
  window : Semaphore.Counting.t;
  window_size : int;
}
(** One connection's writer state.  [cells] is the ordered reply
    queue; [window] bounds the replies buffered ahead of the writer
    (acquire before queueing, released by the writer after the
    flush); [window_size] is its capacity. *)

val make_conn : ?window:int -> Unix.file_descr -> conn
(** Default window: 64. *)

val push_cell : conn -> cell -> unit
(** Queue a cell (no window accounting — callers acquire the window
    themselves before queueing an [Out]). *)

val push_line : conn -> string -> unit
(** Acquire one window slot and queue an already-rendered reply. *)

val fill : conn -> pending -> string -> unit
(** Resolve a reply slot from another thread/domain and wake the
    writer and any {!await}er. *)

val await : conn -> pending list -> unit
(** Block until every given slot is filled. *)

val writer_loop : conn -> unit
(** The writer body: pops cells in order, blocking while the head slot
    is unfilled, coalescing consecutive ready replies into one
    [write]; returns after an [End] cell.  Write errors switch to
    discard mode — every slot is still consumed so window slots
    release and later fills go somewhere. *)

val spawn_writer : conn -> Thread.t
