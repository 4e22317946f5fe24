(* Tests for the resident checker service: framing edge cases,
   handshake negotiation, lossless request/response round-trips
   (including the hex-float statistics encoding), and daemons running
   in their own domain: sessions, remote checks against local runs, a
   warm cache on the daemon's own trace stream, and byzantine clients
   and injected faults (the chaos suite). `dune build @serve-smoke`,
   `@chaos-smoke` and `@cert-smoke` select suites of this file. *)

open Entangle_models
module Sexp = Entangle_ir.Sexp
module P = Entangle_serve.Protocol
module Srv = Entangle_serve.Server
module Cl = Entangle_serve.Client
module F = Entangle_failpoint.Failpoint
module Trace = Entangle_trace

let check = Alcotest.check

(* --- framing ------------------------------------------------------------ *)

let io_deadline () = Some (Unix.gettimeofday () +. 10.)

(* [read] reads through [Io] what [write] sent through [Io] on the
   other end of a socket pair before hanging up. *)
let over_socketpair write read =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      close a;
      close b)
    (fun () ->
      write (P.Io.of_fd a);
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      read (P.Io.of_fd b))

(* What the frame reader makes of [raw] followed by EOF. *)
let first_frame raw =
  over_socketpair
    (fun io -> ignore (P.Io.write_raw ?deadline:(io_deadline ()) io raw))
    (fun io -> P.Io.read_frame ?deadline:(io_deadline ()) io)

let torn raw =
  match first_frame raw with Error (P.Io.Failed _) -> true | _ -> false

let framing_tests =
  [
    Alcotest.test_case "frames round-trip, including empty payloads" `Quick
      (fun () ->
        let payloads = [ "(ping)"; ""; String.make 4096 'x'; "a\nb\nc" ] in
        over_socketpair
          (fun io ->
            List.iter
              (fun p ->
                match P.Io.write_frame ?deadline:(io_deadline ()) io p with
                | Ok () -> ()
                | Error e ->
                    Alcotest.failf "write_frame: %s" (P.Io.error_message e))
              payloads)
          (fun io ->
            List.iter
              (fun expected ->
                match P.Io.read_frame ?deadline:(io_deadline ()) io with
                | Ok got -> check Alcotest.string "payload" expected got
                | Error e ->
                    Alcotest.failf "read_frame: %s" (P.Io.error_message e))
              payloads;
            (* EOF on a frame boundary is a clean close, not a hang or
               an empty frame. *)
            check Alcotest.bool "EOF after the last frame is Closed" true
              (P.Io.read_frame ?deadline:(io_deadline ()) io
              = Error P.Io.Closed)));
    Alcotest.test_case "garbage length prefixes are rejected" `Quick (fun () ->
        check Alcotest.bool "non-digit prefix" true (torn "abc\n(ping)");
        check Alcotest.bool "negative length" true (torn "-5\nhello");
        check Alcotest.bool "missing newline" true (torn "12");
        check Alcotest.bool "empty length line" true (torn "\n(ping)");
        check Alcotest.bool "empty stream is a clean close" true
          (first_frame "" = Error P.Io.Closed));
    Alcotest.test_case "oversized lengths are refused without reading" `Quick
      (fun () ->
        (* Both an 11-digit prefix and a valid number above the cap
           must be refused by the prefix check, before the reader
           looks for a payload. *)
        check Alcotest.bool "too many digits" true
          (first_frame "99999999999\nx"
          = Error (P.Io.Failed "frame length prefix too long"));
        let over = P.max_frame_bytes + 1 in
        check Alcotest.bool "above max_frame_bytes" true
          (first_frame (string_of_int over ^ "\nx")
          = Error
              (P.Io.Failed (Fmt.str "frame of %d bytes exceeds limit" over))));
    Alcotest.test_case "EOF mid-payload is an error" `Quick (fun () ->
        check Alcotest.bool "a torn frame, not a clean close" true
          (torn "10\nabc"));
  ]

(* --- handshake ---------------------------------------------------------- *)

let handshake_tests =
  [
    Alcotest.test_case "hello round-trips" `Quick (fun () ->
        let h = { P.protocol = P.protocol_version; client = "test client" } in
        match P.hello_of_string (P.hello_to_string h) with
        | Ok h' ->
            check Alcotest.int "protocol" h.P.protocol h'.P.protocol;
            check Alcotest.string "client" h.P.client h'.P.client
        | Error e -> Alcotest.failf "hello_of_string: %s" e);
    Alcotest.test_case "welcome, reject and busy round-trip" `Quick (fun () ->
        let cases =
          [
            P.Welcome { protocol = 1; server = "entangle-serve" };
            P.Rejected
              { expected = 1; got = 2; message = "upgrade the older side" };
            P.Busy { max_clients = 64; message = "admission limit reached" };
          ]
        in
        List.iter
          (fun w ->
            match P.welcome_of_string (P.welcome_to_string w) with
            | Ok w' -> check Alcotest.bool "welcome" true (w = w')
            | Error e -> Alcotest.failf "welcome_of_string: %s" e)
          cases);
    Alcotest.test_case "a huge non-integer field echoes a bounded excerpt"
      `Quick (fun () ->
        let big = String.make 400_000 '9' ^ "x" in
        List.iter
          (fun (what, result) ->
            match result with
            | Ok _ -> Alcotest.failf "%s: accepted" what
            | Error e ->
                check Alcotest.bool (what ^ " under 1 KB") true
                  (String.length e < 1024))
          [
            ( "request id",
              Result.map ignore
                (P.request_of_string ("(request (id " ^ big ^ ") (ping))")) );
            ( "response id",
              Result.map ignore
                (P.response_of_string ("(response (id " ^ big ^ ") (pong))"))
            );
          ]);
    Alcotest.test_case "malformed hello is an error" `Quick (fun () ->
        check Alcotest.bool "not a hello" true
          (Result.is_error (P.hello_of_string "(pang)"));
        check Alcotest.bool "not an sexp" true
          (Result.is_error (P.hello_of_string "((")));
  ]

(* --- request / response grammar ---------------------------------------- *)

(* Each frame is also held to the bytes [Format] printed for it. *)
let roundtrip_request ~id req =
  let frame = P.request_to_string ~id req in
  Test_serial.same_frame "request frame" frame;
  match P.request_of_string frame with
  | Ok (id', req') ->
      check Alcotest.int "request id" id id';
      check Alcotest.bool "request body" true (req = req')
  | Error e -> Alcotest.failf "request_of_string: %s" e

let roundtrip_response ~id resp =
  let frame = P.response_to_string ~id resp in
  Test_serial.same_frame "response frame" frame;
  match P.response_of_string frame with
  | Ok (id', resp') ->
      check Alcotest.int "response id" id id';
      check Alcotest.bool "response body" true (resp = resp')
  | Error e -> Alcotest.failf "response_of_string: %s" e

let sample_stats =
  {
    Entangle.Refine.operators_processed = 7;
    saturation_iterations = 12;
    egraph_nodes_peak = 345;
    egraph_classes_peak = 123;
    matches_examined = 9001;
    unions_applied = 42;
    rule_hits = [ ("matmul-assoc", 3); ("sum of slices", 1) ];
    retries = 2;
    budget_trips = 1;
    cache_hits = 4;
    cache_misses = 3;
    cache_replays_failed = 1;
    (* Not representable in decimal: the hex-float rendering must
       carry it across the wire bit-for-bit. *)
    wall_time_s = 0.1 +. 0.2;
  }

let grammar_tests =
  [
    Alcotest.test_case "simple requests round-trip" `Quick (fun () ->
        List.iteri
          (fun i req -> roundtrip_request ~id:i req)
          [ P.Ping; P.Describe; P.Cache_stats; P.Cache_clear; P.Shutdown ]);
    Alcotest.test_case "check requests round-trip structurally" `Quick
      (fun () ->
        let graph name =
          Sexp.list [ Sexp.atom "graph"; Sexp.atom name ]
        in
        let reqs =
          [
            P.Check
              {
                options = P.default_options;
                gs = graph "gs";
                gd = graph "gd";
                relation = Sexp.list [ Sexp.atom "relation" ];
              };
            P.Check
              {
                options =
                  {
                    P.family = Some "regression";
                    namespace = Some "tenant a";
                    keep_going = true;
                  };
                gs = graph "gs";
                gd = graph "gd";
                relation = Sexp.list [ Sexp.atom "relation" ];
              };
          ]
        in
        List.iteri (fun i req -> roundtrip_request ~id:(100 + i) req) reqs);
    Alcotest.test_case "batch and stats requests round-trip" `Quick (fun () ->
        let graph name = Sexp.list [ Sexp.atom "graph"; Sexp.atom name ] in
        let instance name =
          {
            P.gs = graph (name ^ "-gs");
            gd = graph (name ^ "-gd");
            relation = Sexp.list [ Sexp.atom "relation"; Sexp.atom name ];
          }
        in
        roundtrip_request ~id:9 P.Server_stats;
        roundtrip_request ~id:10
          (P.Check_batch { options = P.default_options; instances = [] });
        roundtrip_request ~id:11
          (P.Check_batch
             {
               options = { P.default_options with P.family = Some "regression" };
               instances = [ instance "a"; instance "b"; instance "c" ];
             }));
    Alcotest.test_case "statistics round-trip losslessly" `Quick (fun () ->
        match P.stats_of_sexp (P.stats_to_sexp sample_stats) with
        | Ok s ->
            check Alcotest.bool "bit-for-bit, wall time included" true
              (s = sample_stats)
        | Error e -> Alcotest.failf "stats_of_sexp: %s" e);
    Alcotest.test_case "responses round-trip" `Quick (fun () ->
        let responses =
          [
            P.Pong;
            P.Bye;
            P.Described (P.describe_json ~server:"test");
            P.Cache_cleared 17;
            P.Error_reply { code = P.Bad_request; message = "no such family" };
            P.Error_reply { code = P.Server_internal; message = "boom" };
            P.Cache_stats_reply
              {
                dir = "/tmp/cache";
                stats =
                  {
                    entries = 3;
                    bytes = 1234;
                    shards = 2;
                    quarantined = 1;
                    max_bytes = Some 4096;
                    max_age_s = Some 60.;
                    evicted_entries = 5;
                    evicted_bytes = 678;
                    expired_entries = 2;
                  };
              };
            P.Cache_stats_reply
              {
                dir = "/tmp/cache";
                stats =
                  {
                    entries = 0;
                    bytes = 0;
                    shards = 0;
                    quarantined = 0;
                    max_bytes = None;
                    max_age_s = None;
                    evicted_entries = 0;
                    evicted_bytes = 0;
                    expired_entries = 0;
                  };
              };
            P.Checked
              {
                exit_code = 0;
                verdict = "refines";
                report = "refines: 7 operators\nwith a second line";
                output_relation =
                  Some (Sexp.list [ Sexp.atom "relation" ]);
                stats = sample_stats;
              };
            P.Checked
              {
                exit_code = 1;
                verdict = "unmapped";
                report = "operator 3 has no counterpart";
                output_relation = None;
                stats = sample_stats;
              };
            P.Server_stats_reply
              {
                accepted = 12;
                active = 3;
                served = 40;
                rejected_busy = 2;
                timed_out = 1;
                drained = 0;
                accept_failures = 1;
                max_clients = 64;
              };
            P.Batch_done { count = 0 };
            P.Batch_done { count = 7 };
            (* Batch items carry a full nested response. *)
            P.Batch_item
              {
                index = 0;
                body =
                  P.Checked
                    {
                      exit_code = 0;
                      verdict = "refines";
                      report = "refines";
                      output_relation = None;
                      stats = sample_stats;
                    };
              };
            P.Batch_item
              {
                index = 3;
                body =
                  P.Error_reply
                    { code = P.Bad_request; message = "unreadable graph" };
              };
          ]
        in
        List.iteri (fun i resp -> roundtrip_response ~id:i resp) responses);
    Alcotest.test_case "error codes map onto the CLI exits" `Quick (fun () ->
        check Alcotest.int "bad-request is the usage exit" 124
          (P.error_exit_code P.Bad_request);
        check Alcotest.int "internal is the internal-verdict exit" 3
          (P.error_exit_code P.Server_internal));
    Alcotest.test_case "describe carries the versioned envelope" `Quick
      (fun () ->
        let json = P.describe_json ~server:"unit" in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool "schema tag" true
          (contains json "\"schema\": \"entangle/serve/1\"");
        check Alcotest.bool "no retired jobs option" false
          (contains json "\"jobs\""));
    Alcotest.test_case "one table names every request kind" `Quick (fun () ->
        let nil = Sexp.list [] and options = P.default_options in
        List.iter
          (fun r ->
            match Sexp.of_string (P.request_to_string ~id:1 r) with
            | Ok (Sexp.List [ _; _; Sexp.List (Sexp.Atom head :: _) ]) ->
                check Alcotest.string "head atom" (P.request_name r) head
            | _ -> Alcotest.fail "not a request frame")
          [
            P.Ping;
            P.Describe;
            P.Check { options; gs = nil; gd = nil; relation = nil };
            P.Check_batch { options; instances = [] };
            P.Cert_fetch
              { options; gs = nil; gd = nil; relation = nil; env = [] };
            P.Cert_push { bundle = "b" };
            P.Cache_stats;
            P.Cache_clear;
            P.Server_stats;
            P.Shutdown;
          ];
        check Alcotest.int "ten distinct names" 10
          (List.length (List.sort_uniq String.compare P.request_names));
        check Alcotest.int "one entry each" 10 (List.length P.request_names);
        let listed =
          match Trace.Json.parse (P.describe_json ~server:"unit") with
          | Ok json -> (
              match Trace.Json.member "requests" json with
              | Some (Trace.Json.Arr items) ->
                  List.map
                    (function Trace.Json.Str s -> s | _ -> "<not a string>")
                    items
              | _ -> Alcotest.fail "describe: no requests array")
          | Error e -> Alcotest.failf "describe: %s" e
        in
        check
          Alcotest.(list string)
          "describe lists exactly the table" P.request_names listed);
  ]

(* --- the retry ladder --------------------------------------------------- *)

(* A policy whose sleeps are recorded instead of slept: the ladder's
   behavior (how many redials, with which delays) becomes assertable
   without wall-clock time. *)
let recording_retry ?(retries = 3) ?timeout_s ?(jitter_seed = 41) () =
  let slept = ref [] in
  let r =
    {
      Cl.default_retry with
      Cl.retries;
      timeout_s;
      backoff_base_s = 0.01;
      jitter_seed;
      sleep = (fun d -> slept := d :: !slept);
    }
  in
  (r, fun () -> List.rev !slept)

(* A minimal in-domain daemon stand-in that accepts [conns]
   connections, answers the handshake, reads one request frame and
   drops the connection without replying — the shape that forces the
   ladder's request-phase (post-send) decision. *)
let with_half_open_server ~conns f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "entangle-test-halfopen-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 16;
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to conns do
          let fd, _ = Unix.accept listener in
          let io = P.Io.of_fd fd in
          let dl = Some (Unix.gettimeofday () +. 10.) in
          ignore (P.Io.read_frame ?deadline:dl io);
          ignore
            (P.Io.write_frame ?deadline:dl io
               (P.welcome_to_string
                  (P.Welcome
                     { protocol = P.protocol_version; server = "half-open" })));
          ignore (P.Io.read_frame ?deadline:dl io);
          try Unix.close fd with Unix.Unix_error _ -> ()
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join d;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f socket)

let retry_tests =
  [
    Alcotest.test_case "backoff schedule is deterministic per seed" `Quick
      (fun () ->
        let policy seed =
          { Cl.default_retry with Cl.retries = 6; jitter_seed = seed }
        in
        check
          Alcotest.(list (float 0.))
          "same seed, same delays"
          (Cl.backoff_schedule (policy 7))
          (Cl.backoff_schedule (policy 7));
        check Alcotest.bool "different seeds decorrelate" true
          (Cl.backoff_schedule (policy 7) <> Cl.backoff_schedule (policy 8));
        check Alcotest.int "one delay per retry" 6
          (List.length (Cl.backoff_schedule (policy 7))));
    Alcotest.test_case "the default jitter seed is the process id" `Quick
      (fun () ->
        (* Two --remote processes that meet one busy daemon must not
           sleep the same delays. *)
        let pid = Unix.getpid () in
        check Alcotest.int "seed" pid Cl.default_retry.Cl.jitter_seed;
        check Alcotest.bool "another pid, another schedule" true
          (Cl.backoff_schedule Cl.default_retry
          <> Cl.backoff_schedule
               { Cl.default_retry with Cl.jitter_seed = pid + 1 }));
    Alcotest.test_case "backoff is capped and jitter stays in band" `Quick
      (fun () ->
        let r =
          {
            Cl.default_retry with
            Cl.retries = 10;
            backoff_base_s = 0.05;
            backoff_cap_s = 0.4;
            jitter_seed = 3;
          }
        in
        List.iteri
          (fun k d ->
            let base = Float.min 0.4 (0.05 *. (2. ** float_of_int k)) in
            check Alcotest.bool
              (Fmt.str "delay %d within [base/2, 1.5*base)" k)
              true
              (d >= 0.5 *. base && d < 1.5 *. base))
          (Cl.backoff_schedule r));
    Alcotest.test_case "gives up after N retries, keeping the last error"
      `Quick (fun () ->
        let retry, slept = recording_retry ~retries:3 () in
        let socket = "/nonexistent/entangle-test.sock" in
        match Cl.call ~retry ~socket P.Ping with
        | Ok _ -> Alcotest.fail "a dead socket answered"
        | Error e ->
            check Alcotest.int "attempts = 1 + retries" 4 e.Cl.attempts;
            check Alcotest.string "last error kind survives" "refused"
              (Cl.kind_name e.Cl.kind);
            check Alcotest.bool "message is preserved" true
              (String.length e.Cl.message > 0);
            check
              Alcotest.(list (float 0.))
              "slept exactly the schedule"
              (Cl.backoff_schedule retry) (slept ()));
    Alcotest.test_case "idempotent requests retry after a dropped reply" `Quick
      (fun () ->
        (* Every attempt reaches the request phase and dies there; a
           ping is idempotent, so the ladder uses all its attempts. *)
        let retry, slept = recording_retry ~retries:2 ~timeout_s:10. () in
        with_half_open_server ~conns:3 (fun socket ->
            match Cl.call ~retry ~socket P.Ping with
            | Ok _ -> Alcotest.fail "half-open server answered"
            | Error e ->
                check Alcotest.int "all attempts used" 3 e.Cl.attempts;
                check Alcotest.int "slept between each" 2
                  (List.length (slept ()))));
    Alcotest.test_case "non-idempotent requests are never resent" `Quick
      (fun () ->
        (* Same failure shape, but cache-clear must not be retried
           once the request frame is out: one attempt, zero sleeps. *)
        let retry, slept = recording_retry ~retries:3 ~timeout_s:10. () in
        with_half_open_server ~conns:1 (fun socket ->
            match Cl.call ~retry ~socket P.Cache_clear with
            | Ok _ -> Alcotest.fail "half-open server answered"
            | Error e ->
                check Alcotest.int "exactly one attempt" 1 e.Cl.attempts;
                check Alcotest.int "no backoff sleeps" 0
                  (List.length (slept ()))));
    Alcotest.test_case "shutdown is never resent either" `Quick (fun () ->
        let retry, slept = recording_retry ~retries:3 ~timeout_s:10. () in
        with_half_open_server ~conns:1 (fun socket ->
            match Cl.call ~retry ~socket P.Shutdown with
            | Ok _ -> Alcotest.fail "half-open server answered"
            | Error e ->
                check Alcotest.int "exactly one attempt" 1 e.Cl.attempts;
                check Alcotest.int "no backoff sleeps" 0
                  (List.length (slept ()))));
  ]

(* --- end-to-end: a server in its own domain ----------------------------- *)

let temp_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "entangle-test-%s-%d.sock" tag (Unix.getpid ()))

(* Run [f ()] while [server], bound to [socket], runs in its own
   domain, then stop the daemon (unless [f] drained it already), join it
   and remove its lock file, whether [f] returns or raises. Returns
   [f]'s result. *)
let serving ?(signals = false) server socket f =
  let d = Domain.spawn (fun () -> Srv.run ~signals server) in
  Fun.protect
    ~finally:(fun () ->
      (* The shutdown connect can transiently lose an admission race
         (e.g. against a just-closed client's handler still holding its
         slot), so retry briefly — a single ignored failure here would
         leave Domain.join waiting forever. *)
      let rec stop n =
        match Cl.connect ~timeout_s:10. ~socket () with
        | Ok c -> ignore (Cl.shutdown c)
        | Error _ when n > 0 ->
            Unix.sleepf 0.05;
            stop (n - 1)
        | Error _ -> ()
      in
      if not (Srv.draining server) then stop 100;
      Domain.join d;
      try Sys.remove (socket ^ ".lock") with Sys_error _ -> ())
    f

(* Run [f server socket] against a fresh daemon, as {!serving} runs
   it. *)
let with_server ?(tag = "serve") ?config ?cache ?max_clients ?io_timeout_s
    ?signals f =
  let socket = temp_socket tag in
  (try Sys.remove socket with Sys_error _ -> ());
  match
    Srv.create ~name:"test-daemon" ?config ?cache ?max_clients ?io_timeout_s
      ~socket ()
  with
  | Error e -> Alcotest.failf "Server.create: %s" (Srv.error_message e)
  | Ok server -> serving ?signals server socket (fun () -> f server socket)

let with_client ?client socket f =
  match Cl.connect ?client ~timeout_s:10. ~socket () with
  | Error e -> Alcotest.failf "connect: %s" (Cl.error_message e)
  | Ok c -> Fun.protect ~finally:(fun () -> Cl.close c) (fun () -> f c)

(* Poll [p] every 20 ms for up to 10 s: for what the daemon does
   asynchronously, such as timing a stalled read out. *)
let eventually p =
  let rec go n =
    if p () then true
    else if n = 0 then false
    else begin
      Unix.sleepf 0.02;
      go (n - 1)
    end
  in
  go 500

(* Dial [socket] and handshake by hand, then run [f] on the raw frame
   stream: the shape of a client that misbehaves once admitted. *)
let with_raw_client ~client socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let io = P.Io.of_fd fd in
      let deadline = Some (Unix.gettimeofday () +. 60.) in
      let handshake =
        Result.bind
          (P.Io.write_frame ?deadline io
             (P.hello_to_string { P.protocol = P.protocol_version; client }))
          (fun () -> P.Io.read_frame ?deadline io)
      in
      match handshake with
      | Ok _ -> f io
      | Error e ->
          Alcotest.failf "%s handshake: %s" client (P.Io.error_message e))

(* A check the server cannot even start: garbage graphs. *)
let garbage_check =
  P.Check
    {
      options = P.default_options;
      gs = Sexp.atom "garbage";
      gd = Sexp.atom "garbage";
      relation = Sexp.atom "garbage";
    }

let end_to_end_tests =
  [
    Alcotest.test_case "session: reject, ping, bad request, shutdown" `Slow
      (fun () ->
        with_server (fun _server socket ->
            (* A future client is turned away with a structured frame
               naming both versions — and the daemon survives it. *)
            (match
               Cl.raw_hello ~socket ~protocol:(P.protocol_version + 1)
             with
            | Ok (P.Rejected { expected; got; message }) ->
                check Alcotest.int "expected" P.protocol_version expected;
                check Alcotest.int "got" (P.protocol_version + 1) got;
                check Alcotest.bool "reason is human-readable" true
                  (String.length message > 0)
            | Ok (P.Welcome _) ->
                Alcotest.fail "future protocol was welcomed"
            | Ok (P.Busy _) -> Alcotest.fail "future protocol got busy"
            | Error e -> Alcotest.failf "raw_hello: %s" e);
            with_client ~client:"unit-test" socket (fun c ->
                (match Cl.ping c with
                | Ok () -> ()
                | Error e -> Alcotest.failf "ping: %s" (Cl.error_message e));
                (* A check the server cannot even start — garbage
                   graphs — must come back as a structured
                   bad-request, not a dropped connection. *)
                (match Cl.request c garbage_check with
                | Ok (P.Error_reply { code = P.Bad_request; _ }) -> ()
                | Ok _ -> Alcotest.fail "garbage graphs were accepted"
                | Error e ->
                    Alcotest.failf "check transport: %s" (Cl.error_message e));
                (* The connection is still usable afterwards. *)
                match Cl.ping c with
                | Ok () -> ()
                | Error e ->
                    Alcotest.failf "ping after bad request: %s"
                      (Cl.error_message e))));
    Alcotest.test_case "batch: items stream in order with contained faults"
      `Slow (fun () ->
        with_server ~tag:"batch" (fun _server socket ->
            with_client socket (fun c ->
                (* Unreadable instances: each must come back as its own
                   per-item bad-request, in order, with the stream
                   terminated by the full count. *)
                let bad name =
                  {
                    P.gs = Sexp.atom name;
                    gd = Sexp.atom name;
                    relation = Sexp.atom name;
                  }
                in
                match
                  Cl.check_batch c
                    ~instances:[ bad "alpha"; bad "beta"; bad "gamma" ]
                    ()
                with
                | Error e ->
                    Alcotest.failf "check_batch: %s" (Cl.error_message e)
                | Ok items ->
                    check Alcotest.int "one item per instance" 3
                      (List.length items);
                    List.iter
                      (function
                        | P.Error_reply { code = P.Bad_request; _ } -> ()
                        | _ -> Alcotest.fail "expected a per-item bad-request")
                      items)));
    Alcotest.test_case "pipeline: responses arrive in request order" `Slow
      (fun () ->
        with_server ~tag:"pipeline" (fun _server socket ->
            with_raw_client ~client:"pipeline" socket (fun io ->
                (* Five requests written back-to-back before any reply is
                   read; the faulty one in the middle must not reorder
                   the stream. *)
                let requests =
                  [ P.Ping; P.Describe; garbage_check; P.Server_stats; P.Ping ]
                in
                let deadline = Some (Unix.gettimeofday () +. 60.) in
                List.iteri
                  (fun i req ->
                    match
                      P.Io.write_frame ?deadline io
                        (P.request_to_string ~id:(i + 1) req)
                    with
                    | Ok () -> ()
                    | Error e ->
                        Alcotest.failf "write: %s" (P.Io.error_message e))
                  requests;
                let replies =
                  List.map
                    (fun _ ->
                      match P.Io.read_frame ?deadline io with
                      | Error e ->
                          Alcotest.failf "read: %s" (P.Io.error_message e)
                      | Ok raw -> (
                          match P.response_of_string raw with
                          | Ok reply -> reply
                          | Error e -> Alcotest.failf "response: %s" e))
                    requests
                in
                check
                  Alcotest.(list int)
                  "ids in request order" [ 1; 2; 3; 4; 5 ]
                  (List.map fst replies);
                match List.map snd replies with
                | [
                 P.Pong;
                 P.Described _;
                 P.Error_reply { code = P.Bad_request; _ };
                 P.Server_stats_reply _;
                 P.Pong;
                ] ->
                    ()
                | _ -> Alcotest.fail "reply kinds out of request order")));
    Alcotest.test_case "server-stats: counters served over the wire" `Slow
      (fun () ->
        with_server ~tag:"stats" (fun server socket ->
            with_client socket (fun c ->
                (match Cl.ping c with
                | Ok () -> ()
                | Error e -> Alcotest.failf "ping: %s" (Cl.error_message e));
                match Cl.request c P.Server_stats with
                | Ok (P.Server_stats_reply s) ->
                    check Alcotest.bool "accepted at least this client" true
                      (s.P.accepted >= 1);
                    check Alcotest.bool "served at least the ping" true
                      (s.P.served >= 1);
                    check Alcotest.int "wire counters match in-process"
                      (Srv.stats server).P.accepted s.P.accepted
                | Ok _ -> Alcotest.fail "unexpected reply to server-stats"
                | Error e ->
                    Alcotest.failf "server_stats: %s" (Cl.error_message e))));
    Alcotest.test_case "admission: over-limit clients get a busy frame" `Slow
      (fun () ->
        with_server ~tag:"busy" ~max_clients:1 (fun _server socket ->
            (* The first client holds the only slot: [with_client]
               closes it on every path, or the shutdown in
               [with_server] is refused as busy and the daemon is
               never stopped. *)
            with_client socket (fun _first ->
                let turned_away ?client label =
                  match Cl.connect ?client ~timeout_s:10. ~socket () with
                  | Ok c ->
                      Cl.close c;
                      Alcotest.fail "a client was admitted over the limit"
                  | Error e ->
                      check Alcotest.string label "busy"
                        (Cl.kind_name e.Cl.kind)
                in
                turned_away "structured busy rejection";
                (* A hello larger than the socket buffers is still being
                   written when the daemon hangs up after its busy
                   frame, so the write always breaks: the client must
                   report the frame, not the pipe. *)
                turned_away ~client:(String.make (4 lsl 20) 'x')
                  "busy even when the hello write breaks");
            (* Once the slot frees the daemon admits again; the release
               is asynchronous, so poll. *)
            check Alcotest.bool "slot frees after disconnect" true
              (eventually (fun () ->
                   match Cl.connect ~timeout_s:10. ~socket () with
                   | Ok c ->
                       Cl.close c;
                       true
                   | Error _ -> false))));
    Alcotest.test_case "slow loris: a stalled frame costs one timeout" `Slow
      (fun () ->
        with_server ~tag:"loris" ~io_timeout_s:0.2 (fun server socket ->
            with_raw_client ~client:"loris" socket (fun io ->
                (* Two digits of a length prefix, then silence: the
                   server must cut the connection at its I/O deadline,
                   not hold a handler thread hostage. *)
                ignore (P.Io.write_raw io "12");
                check Alcotest.bool "timeout counted" true
                  (eventually (fun () -> (Srv.stats server).P.timed_out >= 1)));
            (* And the daemon still answers well-behaved clients. *)
            with_client socket (fun c ->
                check Alcotest.bool "daemon survives the loris" true
                  (Cl.ping c = Ok ()))));
  ]

(* --- retired options ------------------------------------------------------ *)

(* Protocol-3 clients may still send [(jobs N)], which once set the
   width of a domain pool. The field is now unknown, and unknown option
   fields are ignored by name, so such a frame must be answered exactly
   as the same frame without it. *)

(* Send one raw request frame on a fresh connection; return the reply. *)
let raw_request ~socket frame =
  with_raw_client ~client:"retired-options" socket (fun io ->
      let deadline = Some (Unix.gettimeofday () +. 60.) in
      let reply =
        Result.bind (P.Io.write_frame ?deadline io frame) (fun () ->
            P.Io.read_frame ?deadline io)
      in
      match reply with
      | Error e -> Alcotest.failf "raw request: %s" (P.Io.error_message e)
      | Ok raw -> (
          match P.response_of_string raw with
          | Ok (_, resp) -> resp
          | Error e -> Alcotest.failf "response_of_string: %s" e))
let replace_all ~sub ~by s =
  let n = String.length sub and len = String.length s in
  let b = Buffer.create len in
  let rec go i =
    if i + n <= len && String.sub s i n = sub then (
      Buffer.add_string b by;
      go (i + n))
    else if i < len then (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

(* Wall time is the one field two runs of a check may differ in: zero
   it in the statistics and blank its rendering in the report. *)
let without_wall_time = function
  | P.Checked c ->
      let shown = Fmt.str "%.3fs" c.P.stats.Entangle.Refine.wall_time_s in
      P.Checked
        {
          c with
          P.report = replace_all ~sub:shown ~by:"<wall>" c.P.report;
          stats = { c.P.stats with Entangle.Refine.wall_time_s = 0. };
        }
  | r -> r

let retired_option_tests =
  [
    Alcotest.test_case "a check carrying (jobs 4) gets the same reply" `Slow
      (fun () ->
        let inst = Regression.build () in
        let check_frame =
          P.request_to_string ~id:1
            (P.Check
               {
                 options = P.default_options;
                 gs = Entangle_ir.Serial.graph_to_sexp inst.Instance.gs;
                 gd = Entangle_ir.Serial.graph_to_sexp inst.Instance.gd;
                 relation =
                   Entangle.Relation_io.to_sexp inst.Instance.input_relation;
               })
        in
        let jobs_frame =
          replace_all ~sub:"(options)" ~by:"(options (jobs 4))" check_frame
        in
        check Alcotest.bool "the frame really carries the option" true
          (jobs_frame <> check_frame);
        check Alcotest.bool "it parses to the same request" true
          (P.request_of_string jobs_frame = P.request_of_string check_frame);
        with_server ~tag:"jobs" (fun _server socket ->
            let plain = raw_request ~socket check_frame in
            let jobs_reply = raw_request ~socket jobs_frame in
            (match plain with
            | P.Checked { exit_code = 0; _ } -> ()
            | _ -> Alcotest.fail "the plain check did not refine");
            check Alcotest.bool "same reply, wall time aside" true
              (without_wall_time plain = without_wall_time jobs_reply)));
  ]

(* --- socket ownership --------------------------------------------------- *)

let race_tests =
  [
    Alcotest.test_case "a second daemon on a live socket is refused" `Slow
      (fun () ->
        with_server ~tag:"race1" (fun _server socket ->
            match Srv.create ~name:"loser" ~socket () with
            | Ok _ -> Alcotest.fail "two daemons own one socket"
            | Error (Srv.In_use { socket = s }) ->
                check Alcotest.string "error names the socket" socket s
            | Error (Srv.Failed m) ->
                Alcotest.failf "expected In_use, got: %s" m));
    Alcotest.test_case "concurrent creates resolve to exactly one listener"
      `Slow (fun () ->
        let socket = temp_socket "race2" in
        (try Sys.remove socket with Sys_error _ -> ());
        (* Two would-be daemons race through probe-and-rebind on the
           same path; the lock serializes them, so exactly one may
           win. *)
        let contender () =
          Domain.spawn (fun () -> Srv.create ~name:"contender" ~socket ())
        in
        let a = contender () and b = contender () in
        let results = [ Domain.join a; Domain.join b ] in
        (* Serve and drain every winner before judging, so neither its
           socket nor its lock file outlives the test, whatever the
           checks below find. *)
        List.iter
          (function
            | Ok server -> serving server socket ignore | Error _ -> ())
          results;
        check Alcotest.int "exactly one winner" 1
          (List.length (List.filter Result.is_ok results));
        (match
           List.find_opt
             (function Error (Srv.In_use _) -> true | _ -> false)
             results
         with
        | Some _ -> ()
        | None -> Alcotest.fail "loser's error was not In_use");
        check Alcotest.bool "socket removed after drain" false
          (Sys.file_exists socket));
  ]

(* --- the daemon against local runs --------------------------------------- *)

(* The options and the wire form of a check of [inst]. *)
let options_for ?namespace (inst : Instance.t) =
  {
    P.default_options with
    P.family = Some (Entangle_lemmas.Registry.family_name inst.Instance.family);
    namespace;
  }

let wire (inst : Instance.t) =
  {
    P.gs = Entangle_ir.Serial.graph_to_sexp inst.Instance.gs;
    gd = Entangle_ir.Serial.graph_to_sexp inst.Instance.gd;
    relation = Entangle.Relation_io.to_sexp inst.Instance.input_relation;
  }

let check_request ?namespace inst =
  let { P.gs; gd; relation } = wire inst in
  P.Check { options = options_for ?namespace inst; gs; gd; relation }

let remote_check ?namespace client (inst : Instance.t) =
  match Cl.request client (check_request ?namespace inst) with
  | Ok (P.Checked r) -> r
  | Ok (P.Error_reply { message; _ }) ->
      Alcotest.failf "%s: daemon error: %s" inst.Instance.name message
  | Ok _ -> Alcotest.failf "%s: not a check reply" inst.Instance.name
  | Error e -> Alcotest.failf "%s: %s" inst.Instance.name (Cl.error_message e)

let verdict_tag = function
  | Ok _ -> "refines"
  | Error (f : Entangle.Refine.failure) -> (
      match f.verdict with
      | Entangle.Refine.Unmapped _ -> "unmapped"
      | Entangle.Refine.Inconclusive _ -> "inconclusive"
      | Entangle.Refine.Internal _ -> "internal")

(* Statistics as the wire renders them, wall time zeroed: two runs of
   one check agree on the rest. *)
let stats_text (s : Entangle.Refine.stats) =
  Sexp.to_string (P.stats_to_sexp { s with Entangle.Refine.wall_time_s = 0. })

let daemon_tests =
  let gpt () = Gpt.build ~layers:1 ~degree:2 () in
  [
    Alcotest.test_case "remote checks equal local ones; no cache verbs" `Slow
      (fun () ->
        with_server ~tag:"fidelity" (fun _server socket ->
            with_client socket (fun client ->
                List.iter
                  (fun (inst : Instance.t) ->
                    let name = inst.Instance.name in
                    let local = Instance.check inst in
                    let remote = remote_check client inst in
                    check Alcotest.string (name ^ ": verdict")
                      (verdict_tag local) remote.P.verdict;
                    check Alcotest.int (name ^ ": exit code")
                      (Entangle.Refine.exit_code local) remote.P.exit_code;
                    check Alcotest.string
                      (name ^ ": stats apart from wall time")
                      (stats_text (Test_cache.result_stats local))
                      (stats_text remote.P.stats))
                  ([ Regression.build ~microbatches:2 (); gpt () ]
                  @ List.map
                      (fun id -> (Bugs.case id).Bugs.instance)
                      [ 1; 6; 7 ]);
                match Cl.request client P.Cache_stats with
                | Ok (P.Error_reply { code = P.Bad_request; _ }) -> ()
                | _ ->
                    Alcotest.fail
                      "uncached daemon: cache-stats is not a bad-request")));
    Alcotest.test_case "remote stats fails when the daemon's cache-stats does"
      `Slow (fun () ->
        (* A cached daemon process whose first cache-stats dispatch
           crashes, armed through ENTANGLE_FAILPOINTS in that process:
           remote stats reports the failure with the internal exit,
           not an uncached daemon, and reports the cache once the
           handler answers. *)
        Test_cache.with_temp_dir (fun dir ->
            let socket = temp_socket "stats-failpoint" in
            (try Sys.remove socket with Sys_error _ -> ());
            let env =
              Array.append
                [| "ENTANGLE_FAILPOINTS=serve.dispatch.cache-stats=nth:1" |]
                (Array.of_list
                   (List.filter
                      (fun v -> not (String.starts_with ~prefix:"ENTANGLE_FAILPOINTS=" v))
                      (Array.to_list (Unix.environment ()))))
            in
            let cli = "../bin/entangle_cli.exe" in
            let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
            let daemon =
              Fun.protect
                ~finally:(fun () -> Unix.close null)
                (fun () ->
                  Unix.create_process_env cli
                    [| cli; "serve"; "--socket"; socket; "--cache-dir"; dir |]
                    env Unix.stdin null null)
            in
            let remote action =
              Test_cache.cli_output
                [ "remote"; "--socket"; socket; "--remote-retries"; "8"; action ]
            in
            Fun.protect
              ~finally:(fun () ->
                ignore (remote "shutdown");
                (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] daemon);
                try Sys.remove (socket ^ ".lock") with Sys_error _ -> ())
              (fun () ->
                let code, out = remote "stats" in
                check Alcotest.int "a failed cache-stats: the internal exit" 3 code;
                check Alcotest.bool "not reported as uncached" false
                  (Test_certexport.contains out "uncached");
                let code, out = remote "stats" in
                check Alcotest.int "then the stats: exit 0" 0 code;
                check Alcotest.bool "with the cache" true
                  (Test_certexport.contains out ("cache " ^ dir)))));
    Alcotest.test_case "a warm re-check: zero saturation on the daemon's trace"
      `Slow (fun () ->
        Test_cache.with_temp_cache (fun cache ->
            let collector = Trace.Collect.create () in
            let config =
              Entangle.Config.default
              |> Entangle.Config.with_trace (Trace.Collect.sink collector)
            in
            let spans cat =
              List.length
                (List.filter
                   (fun (e : Trace.Event.t) -> e.cat = cat)
                   (Trace.Collect.events collector))
            in
            with_server ~tag:"warm" ~config ~cache (fun _server socket ->
                with_client socket (fun client ->
                    let cold = remote_check client (gpt ()) in
                    let ops =
                      cold.P.stats.Entangle.Refine.operators_processed
                    in
                    check Alcotest.int "cold: no hits" 0
                      cold.P.stats.Entangle.Refine.cache_hits;
                    check Alcotest.int "cold: one miss per operator" ops
                      cold.P.stats.Entangle.Refine.cache_misses;
                    let cold_iterations = spans "iteration" in
                    check Alcotest.bool "cold: iteration events on the trace"
                      true (cold_iterations > 0);
                    let warm = remote_check client (gpt ()) in
                    check Alcotest.int "warm: every operator a hit" ops
                      warm.P.stats.Entangle.Refine.cache_hits;
                    check Alcotest.int "warm: zero iterations in the reply" 0
                      warm.P.stats.Entangle.Refine.saturation_iterations;
                    check Alcotest.int "warm: no iteration event on the trace"
                      cold_iterations (spans "iteration");
                    check Alcotest.string "warm: same verdict" cold.P.verdict
                      warm.P.verdict;
                    check Alcotest.int "warm: exit code" 0 warm.P.exit_code;
                    check Alcotest.bool "cat:serve spans on the trace" true
                      (spans "serve" > 0)))));
    Alcotest.test_case "namespaces are isolated; cache verbs over the wire"
      `Slow (fun () ->
        Test_cache.with_temp_cache (fun cache ->
            with_server ~tag:"namespaces" ~cache (fun _server socket ->
                with_client socket (fun client ->
                    let shared = remote_check client (gpt ()) in
                    let ops =
                      shared.P.stats.Entangle.Refine.operators_processed
                    in
                    let tenant =
                      remote_check client ~namespace:"tenant-b" (gpt ())
                    in
                    check Alcotest.int "fresh namespace: no hits" 0
                      tenant.P.stats.Entangle.Refine.cache_hits;
                    check Alcotest.int "fresh namespace: one miss per operator"
                      ops tenant.P.stats.Entangle.Refine.cache_misses;
                    let again =
                      remote_check client ~namespace:"tenant-b" (gpt ())
                    in
                    check Alcotest.int "its re-check: every operator a hit" ops
                      again.P.stats.Entangle.Refine.cache_hits;
                    (match Cl.request client P.Cache_stats with
                    | Ok (P.Cache_stats_reply { stats; _ }) ->
                        check Alcotest.int
                          "cache-stats counts both namespaces' entries"
                          (2 * ops) stats.Entangle_cache.Store.entries
                    | _ -> Alcotest.fail "cache-stats: no stats reply");
                    match Cl.request client P.Cache_clear with
                    | Ok (P.Cache_cleared n) ->
                        check Alcotest.int "cache-clear removes every entry"
                          (2 * ops) n
                    | _ -> Alcotest.fail "cache-clear: no cleared reply"))));
    Alcotest.test_case "a byte-budgeted daemon store stays within budget"
      `Slow (fun () ->
        let budget =
          { Entangle_cache.Store.max_bytes = Some 200; max_age_s = None }
        in
        Test_cache.with_temp_cache ~budget (fun cache ->
            with_server ~tag:"budget" ~cache (fun _server socket ->
                with_client socket (fun client ->
                    let r = remote_check client (Regression.build ()) in
                    check Alcotest.int "the check still refines" 0
                      r.P.exit_code;
                    match Cl.request client P.Cache_stats with
                    | Ok (P.Cache_stats_reply { stats = s; _ }) ->
                        check Alcotest.(option int) "the budget in force"
                          (Some 200) s.Entangle_cache.Store.max_bytes;
                        check Alcotest.bool "bytes within the budget" true
                          (s.Entangle_cache.Store.bytes <= 200);
                        check Alcotest.bool "the sweep evicted entries" true
                          (s.Entangle_cache.Store.evicted_entries > 0)
                    | _ -> Alcotest.fail "cache-stats: no stats reply"))));
  ]

let cert_tests =
  [
    Alcotest.test_case "a truncated cert-push is rejected as CERT001" `Quick
      (fun () ->
        let text = Lazy.force Test_certexport.reference_text in
        with_server ~tag:"cert" (fun _server socket ->
            with_client socket (fun client ->
                match
                  Cl.cert_push client
                    ~bundle:(String.sub text 0 (String.length text / 2))
                with
                | Ok v ->
                    check Alcotest.bool "rejected" false v.P.accepted;
                    check Alcotest.(option string) "code" (Some "CERT001")
                      v.P.cert_code
                | Error e ->
                    Alcotest.failf "cert-push: %s" (Cl.error_message e))));
  ]

(* --- chaos: byzantine clients and injected faults ------------------------ *)

(* Byzantine clients write into sockets the daemon closed on purpose,
   and a drained daemon no longer ignores SIGPIPE for the process: each
   chaos case ignores it, and restores the disposition it found. *)
let chaos_case name f =
  Alcotest.test_case name `Slow (fun () ->
      let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous) f)

let ladder =
  {
    Cl.default_retry with
    Cl.retries = 8;
    timeout_s = Some 10.;
    jitter_seed = 0x5eed;
  }

let chaos_tests =
  [
    chaos_case "a torn reply frame: the retry ladder absorbs it" (fun () ->
        with_server ~tag:"torn" (fun _server socket ->
            F.with_armed "serve.frame.write" (F.Nth 1) (fun () ->
                match Cl.call ~retry:ladder ~socket P.Ping with
                | Ok P.Pong -> ()
                | Ok _ -> Alcotest.fail "not a pong"
                | Error e -> Alcotest.failf "ping: %s" (Cl.error_message e))));
    chaos_case "an accept failure is survived and counted" (fun () ->
        with_server ~tag:"accept" (fun server socket ->
            F.with_armed "serve.accept" (F.Nth 1) (fun () ->
                with_client socket (fun c ->
                    check Alcotest.bool "the pending connection is served" true
                      (Cl.ping c = Ok ())));
            check Alcotest.int "accept failures" 1
              (Srv.stats server).P.accept_failures));
    chaos_case "six clients, three byzantine: verdicts and counters hold"
      (fun () ->
        let reg = Regression.build ~microbatches:2 () in
        let baseline = Instance.check reg in
        let same_as_local what (r : P.check_reply) =
          check Alcotest.int (what ^ ": exit code")
            (Entangle.Refine.exit_code baseline) r.P.exit_code;
          check Alcotest.string (what ^ ": stats apart from wall time")
            (stats_text (Test_cache.result_stats baseline))
            (stats_text r.P.stats)
        in
        with_server ~tag:"soak" ~max_clients:8 ~io_timeout_s:1.0
          (fun server socket ->
            let checks = ref [] in
            let batch = ref None in
            let garbage_reply = ref None in
            let crash_kinds = ref [] in
            let clients =
              [
                (* well-behaved: three checks, each riding the ladder *)
                (fun () ->
                  for _ = 1 to 3 do
                    match Cl.call ~retry:ladder ~socket (check_request reg) with
                    | Ok (P.Checked r) -> checks := r :: !checks
                    | Ok _ | Error _ -> ()
                  done);
                (* well-behaved: one streamed batch, retried whole *)
                (fun () ->
                  let options = options_for reg in
                  let instances =
                    [
                      wire (Regression.build ~microbatches:2 ());
                      wire (Regression.build ());
                    ]
                  in
                  let rec attempt n =
                    let r =
                      Result.bind (Cl.connect ~timeout_s:10. ~socket ())
                        (fun c ->
                          Fun.protect
                            ~finally:(fun () -> Cl.close c)
                            (fun () -> Cl.check_batch c ~options ~instances ()))
                    in
                    match r with
                    | Ok items -> batch := Some items
                    | Error _ when n > 0 ->
                        Thread.delay 0.1;
                        attempt (n - 1)
                    | Error _ -> ()
                  in
                  attempt 5);
                (* slow loris: stalls inside a frame's length prefix
                   until the daemon times the read out *)
                (fun () ->
                  with_raw_client ~client:"loris" socket (fun io ->
                      ignore (P.Io.write_raw io "12");
                      ignore
                        (eventually (fun () ->
                             (Srv.stats server).P.timed_out >= 1))));
                (* mid-request disconnect: half a frame, then gone *)
                (fun () ->
                  with_raw_client ~client:"disconnect" socket (fun io ->
                      let frame =
                        P.encode_frame (P.request_to_string ~id:7 P.Ping)
                      in
                      ignore
                        (P.Io.write_raw io
                           (String.sub frame 0 (String.length frame / 2)))));
                (* garbage: a well-framed payload that is not a request *)
                (fun () ->
                  with_raw_client ~client:"garbage" socket (fun io ->
                      let deadline = Some (Unix.gettimeofday () +. 10.) in
                      ignore
                        (P.Io.write_frame ?deadline io "(no such request)");
                      garbage_reply :=
                        Result.to_option (P.Io.read_frame ?deadline io)));
                (* handler crash: every describe dispatch is armed *)
                (fun () ->
                  with_client socket (fun c ->
                      for _ = 1 to 2 do
                        match Cl.describe c with
                        | Error e -> crash_kinds := e.Cl.kind :: !crash_kinds
                        | Ok _ -> ()
                      done));
              ]
            in
            F.with_armed "serve.dispatch.describe" (F.Every 1) (fun () ->
                List.map (fun c -> Thread.create c ()) clients
                |> List.iter Thread.join);
            check Alcotest.int "repeated checks: all verdicts" 3
              (List.length !checks);
            List.iter (same_as_local "repeated check") !checks;
            (match !batch with
            | Some [ P.Checked a; P.Checked b ] ->
                same_as_local "first batch item" a;
                check Alcotest.int "second batch item: exit code" 0
                  b.P.exit_code
            | Some _ -> Alcotest.fail "batch: not two checked items in order"
            | None -> Alcotest.fail "batch: no reply");
            (match Option.map P.response_of_string !garbage_reply with
            | Some (Ok (0, P.Error_reply { code = P.Bad_request; _ })) -> ()
            | _ -> Alcotest.fail "garbage: no structured bad-request");
            check Alcotest.bool "handler crash: structured internal errors"
              true
              (!crash_kinds <> []
              && List.for_all (fun k -> k = Cl.App) !crash_kinds);
            match Cl.call ~retry:ladder ~socket P.Server_stats with
            | Ok (P.Server_stats_reply s) ->
                check Alcotest.bool "accepted covers every client" true
                  (s.P.accepted >= 9);
                check Alcotest.bool "the slow loris cost a timeout" true
                  (s.P.timed_out >= 1);
                check Alcotest.int "nobody rejected busy" 0 s.P.rejected_busy
            | _ -> Alcotest.fail "server-stats: no stats reply"));
    chaos_case "SIGTERM drains the daemon and unlinks its socket" (fun () ->
        let server, socket, idle =
          with_server ~tag:"drain" ~signals:true (fun server socket ->
              match Cl.connect ~timeout_s:10. ~socket () with
              | Error e -> Alcotest.failf "connect: %s" (Cl.error_message e)
              | Ok idle ->
                  Unix.kill (Unix.getpid ()) Sys.sigterm;
                  if eventually (fun () -> Srv.draining server) then
                    (server, socket, idle)
                  else begin
                    Cl.close idle;
                    Alcotest.fail "SIGTERM did not start a drain"
                  end)
        in
        Fun.protect
          ~finally:(fun () -> Cl.close idle)
          (fun () ->
            check Alcotest.bool "socket file unlinked" false
              (Sys.file_exists socket);
            let s = Srv.stats server in
            check Alcotest.bool "the idle connection was drained" true
              (s.P.drained >= 1);
            check Alcotest.int "no connection active" 0 s.P.active;
            check Alcotest.bool "the idle client sees a dead connection" true
              (Result.is_error (Cl.ping idle))));
    chaos_case "admission: the ladder wins once the only slot frees"
      (fun () ->
        let rejected, socket =
          with_server ~tag:"ladder" ~max_clients:1 (fun server socket ->
              with_client socket (fun first ->
                  (* The ladder's first attempt finds the slot taken;
                     its first backoff frees it. *)
                  let freed = ref false in
                  let sleep d =
                    if not !freed then begin
                      freed := true;
                      Cl.close first
                    end;
                    Unix.sleepf d
                  in
                  let retry = { ladder with Cl.sleep } in
                  (match Cl.call ~retry ~socket P.Ping with
                  | Ok P.Pong -> ()
                  | Ok _ -> Alcotest.fail "not a pong"
                  | Error e -> Alcotest.failf "ping: %s" (Cl.error_message e));
                  (match Cl.call ~retry:ladder ~socket P.Shutdown with
                  | Ok P.Bye -> ()
                  | _ -> Alcotest.fail "shutdown not acknowledged");
                  ((Srv.stats server).P.rejected_busy, socket)))
        in
        check Alcotest.bool "the rejection was counted" true (rejected >= 1);
        check Alcotest.bool "socket unlinked after the drain" false
          (Sys.file_exists socket));
  ]

let suite =
  [
    ("serve.framing", framing_tests);
    ("serve.handshake", handshake_tests);
    ("serve.grammar", grammar_tests);
    ("serve.retry", retry_tests);
    ("serve.end_to_end", end_to_end_tests);
    ("serve.retired_options", retired_option_tests);
    ("serve.race", race_tests);
    ("serve.daemon", daemon_tests);
    ("serve.cert", cert_tests);
    ("serve.chaos", chaos_tests);
  ]
