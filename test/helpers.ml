(* Shared test utilities. *)

module Rat = E2e_rat.Rat

let rat : Rat.t Alcotest.testable = Alcotest.testable Rat.pp Rat.equal
let check_rat msg expected actual = Alcotest.check rat msg expected actual
let q s = Rat.of_decimal_string s
let r = Rat.of_int

(* QCheck arbitrary for small rationals on a 1/den grid in [lo, hi]. *)
let rat_gen ?(den = 4) ~lo ~hi () =
  QCheck.Gen.map (fun k -> Rat.make k den) (QCheck.Gen.int_range (lo * den) (hi * den))

let to_alcotest = QCheck_alcotest.to_alcotest

(* Substring test for pretty-printer smoke tests. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* A schedule must be feasible; on failure print the violations. *)
let assert_feasible msg s =
  match E2e_schedule.Schedule.check s with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "%s: infeasible schedule:@ %a" msg
        (Format.pp_print_list E2e_schedule.Schedule.pp_violation)
        vs

(* Send one request line of exactly [Wire.max_line + 1] bytes, no
   newline, to the TCP front end on [port] and read to end-of-stream.
   The reader consumes every byte before it gives up on the line, so
   the server's close is an orderly FIN and the reply is never lost to
   a reset.  Returns the greeting and the reply lines. *)
let oversized_line_session port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let ic = Unix.in_channel_of_descr fd in
  let greeting = input_line ic in
  E2e_serve.Wire.write_all fd (String.make (E2e_serve.Wire.max_line + 1) 'a');
  let rec replies acc =
    match input_line ic with line -> replies (line :: acc) | exception End_of_file -> List.rev acc
  in
  let replies = replies [] in
  close_in_noerr ic;
  (greeting, replies)

(* One client session: connect, read the greeting, send every line plus
   [quit], then read replies to end-of-stream. *)
let tcp_session port lines =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let greeting = input_line ic in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  output_string oc "quit\n";
  flush oc;
  let replies = ref [] in
  (try
     while true do
       replies := input_line ic :: !replies
     done
   with End_of_file -> ());
  close_in_noerr ic;
  (greeting, List.rev !replies)
