(* The TCP listener behind both line-protocol front ends (the admission
   server and the cluster dispatcher): socket setup, the slot-quota
   accept pool, the shutdown handle, and the per-connection skeleton.
   A front end plugs in only its greeting and its reader. *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
      match
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

(* External shutdown: [shutdown] wakes blocked accepts by shutting the
   listener down (accept fails with EINVAL) and resets every live
   connection (readers see EOF, writers see EPIPE), so every accept
   domain drains and [serve] returns. *)
type control = {
  mu : Mutex.t;
  mutable stop : bool;
  mutable listener : Unix.file_descr option;
  mutable conns : Unix.file_descr list;
}

let control () = { mu = Mutex.create (); stop = false; listener = None; conns = [] }

let stopped c = Mutex.protect c.mu (fun () -> c.stop)

(* Track [fd] as the listener or a live connection unless the handle is
   already stopped; [false] tells the caller to close it instead. *)
let install c fd =
  Mutex.protect c.mu (fun () ->
      if not c.stop then c.listener <- Some fd;
      not c.stop)

let register c fd =
  Mutex.protect c.mu (fun () ->
      if not c.stop then c.conns <- fd :: c.conns;
      not c.stop)

let unregister c fd =
  Mutex.protect c.mu (fun () -> c.conns <- List.filter (fun fd' -> fd' != fd) c.conns)

let shutdown c =
  let listener, conns =
    Mutex.protect c.mu (fun () ->
        c.stop <- true;
        let listener = c.listener in
        c.listener <- None;
        (listener, c.conns))
  in
  let shut fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> () in
  Option.iter shut listener;
  List.iter shut conns

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One connection, in the accept domain that owns it: greeting, writer
   thread, reader, then teardown — join the writer (which flushes every
   outstanding reply and the farewell) before closing the fd, so a
   [quit] races nothing and no buffered reply is ever lost. *)
let handle_conn ~greeting ~window reader fd =
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      match Wire.write_all fd (greeting ^ "\n") with
      | exception Unix.Unix_error _ -> ()
      | () ->
          let conn = Wire.make_conn ~window fd in
          let writer = Wire.spawn_writer conn in
          Fun.protect
            ~finally:(fun () -> Thread.join writer)
            (fun () ->
              try reader conn (Wire.make_reader fd) with _ -> Wire.push_cell conn (End None)))

let serve ?(host = "127.0.0.1") ?max_connections ?(accept_pool = 4) ?(window = 64) ?ready
    ?(control = control ()) ~greeting ~port reader =
  let addr = Unix.ADDR_INET (resolve_host host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let old_sigpipe =
    (* A peer that disappears mid-reply must surface as EPIPE on the
       write, not kill the whole process. *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      close_quietly sock;
      Option.iter
        (fun b -> try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
        old_sigpipe)
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock addr;
      Unix.listen sock 64;
      if install control sock then begin
        Option.iter
          (fun f ->
            f (match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port))
          ready;
        (* Connection slots are claimed before accepting, so with a
           quota exactly [max_connections] accepts happen across the
           pool and every accept domain terminates. *)
        let slots = Atomic.make 0 in
        let quota_ok slot = match max_connections with None -> true | Some n -> slot < n in
        let rec accept_loop () =
          if (not (stopped control)) && quota_ok (Atomic.fetch_and_add slots 1) then
            match Unix.accept sock with
            | fd, _ ->
                if register control fd then begin
                  (try handle_conn ~greeting ~window reader fd with _ -> ());
                  unregister control fd
                end
                else close_quietly fd;
                accept_loop ()
            | exception
                Unix.Unix_error
                  ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                (* Transient (a signal, a connection that aborted in the
                   backlog): retry on the same slot. *)
                Atomic.decr slots;
                accept_loop ()
            | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
                () (* listener closed or shut down: stop accepting *)
            | exception Unix.Unix_error (_, _, _) ->
                (* Resource pressure (EMFILE and friends): back off and
                   keep serving rather than dying. *)
                Atomic.decr slots;
                Unix.sleepf 0.01;
                accept_loop ()
        in
        Array.init (max 1 accept_pool) (fun _ -> Domain.spawn accept_loop)
        |> Array.iter Domain.join
      end)

(* The ready handshake is a binary semaphore released by [ready] and
   again when the front end ends, so a front end that stops before it
   listens (a failed bind, a stopped control) wakes the caller instead
   of leaving it blocked. *)
let spawn serve =
  let port = Atomic.make None and signal = Semaphore.Binary.make false in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Semaphore.Binary.release signal)
          (fun () ->
            serve ~ready:(fun p ->
                Atomic.set port (Some p);
                Semaphore.Binary.release signal)))
  in
  Semaphore.Binary.acquire signal;
  match Atomic.get port with
  | Some p -> (p, domain)
  | None ->
      Domain.join domain;
      failwith "Listener.spawn: the front end stopped before listening"
