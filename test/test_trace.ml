(* Tests for the tracing subsystem: the golden event shape of a small
   verification run, the Chrome trace-event emitter, the hand-rolled
   JSON parser behind `entangle trace-check`, and the property that
   observing a run through any sink never changes its outcome. *)

open Entangle_models
module Trace = Entangle_trace

let check = Alcotest.check

(* Run the checker on [inst] with a collecting sink, returning the
   events alongside the result. *)
let check_collecting inst =
  let c = Trace.Collect.create () in
  let config =
    Entangle.Config.default |> Entangle.Config.with_trace (Trace.Collect.sink c)
  in
  let result = Instance.check ~config inst in
  (result, Trace.Collect.events c)

(* Timestamp-free projection of an event stream: what the golden test
   pins down. *)
let shape events =
  List.map
    (fun (ev : Trace.Event.t) ->
      (Trace.Event.phase_letter ev.phase, ev.cat, ev.name))
    events

let pp_shape ppf (ph, cat, name) = Fmt.pf ppf "(%s, %s, %s)" ph cat name

let shape_t = Alcotest.(list (testable pp_shape ( = )))

let golden_tests =
  [
    Alcotest.test_case "regression model event stream is stable" `Quick
      (fun () ->
        let result, events = check_collecting (Regression.build ()) in
        (match result with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict));
        (* One span per operator; inside each: frontier loading with
           per-wave instants, the saturation iterations with rule hits
           and e-graph growth samples, a final e-graph sample, and the
           extraction phase. Timestamps and args are scrubbed; kinds
           and ordering are the contract. *)
        let expected =
          [
            ("B", "operator", "matmul");
            ("B", "phase", "frontier");
            ("i", "frontier", "frontier-wave");
            ("E", "phase", "frontier");
            ("B", "phase", "saturate");
            ("B", "iteration", "iteration");
            ("i", "rule", "rule-hit");
            ("C", "egraph", "egraph");
            ("E", "iteration", "iteration");
            ("B", "iteration", "iteration");
            ("C", "egraph", "egraph");
            ("E", "iteration", "iteration");
            ("E", "phase", "saturate");
            ("C", "egraph", "egraph");
            ("B", "phase", "extract");
            ("E", "phase", "extract");
            ("E", "operator", "matmul");
            ("B", "operator", "mse_loss");
            ("B", "phase", "frontier");
            ("i", "frontier", "frontier-wave");
            ("i", "frontier", "frontier-wave");
            ("i", "frontier", "frontier-wave");
            ("E", "phase", "frontier");
            ("B", "phase", "saturate");
            ("B", "iteration", "iteration");
            ("i", "rule", "rule-hit");
            ("i", "rule", "rule-hit");
            ("C", "egraph", "egraph");
            ("E", "iteration", "iteration");
            ("B", "iteration", "iteration");
            ("i", "rule", "rule-hit");
            ("i", "rule", "rule-hit");
            ("C", "egraph", "egraph");
            ("E", "iteration", "iteration");
            ("B", "iteration", "iteration");
            ("C", "egraph", "egraph");
            ("E", "iteration", "iteration");
            ("E", "phase", "saturate");
            ("C", "egraph", "egraph");
            ("B", "phase", "extract");
            ("E", "phase", "extract");
            ("E", "operator", "mse_loss");
          ]
        in
        check shape_t "event shape" expected (shape events));
    Alcotest.test_case "spans balance and timestamps are monotone" `Quick
      (fun () ->
        let _, events = check_collecting (Regression.build ~microbatches:4 ()) in
        let depth = ref 0 and last_ts = ref neg_infinity in
        List.iter
          (fun (ev : Trace.Event.t) ->
            check Alcotest.bool "timestamps monotone" true (ev.ts >= !last_ts);
            last_ts := ev.ts;
            match ev.phase with
            | Trace.Event.Begin -> incr depth
            | Trace.Event.End ->
                decr depth;
                check Alcotest.bool "no unmatched end" true (!depth >= 0)
            | _ -> ())
          events;
        check Alcotest.int "all spans closed" 0 !depth);
  ]

let stats_tests =
  [
    Alcotest.test_case "stats are a fold of the trace events" `Quick (fun () ->
        let result, events = check_collecting (Regression.build ()) in
        let stats =
          match result with
          | Ok s -> s.Entangle.Refine.stats
          | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        in
        let replayed = Entangle.Refine.stats_of_events events in
        check Alcotest.bool "identical modulo wall time" true
          ({ stats with Entangle.Refine.wall_time_s = 0. } = replayed));
    Alcotest.test_case "profile agrees with stats" `Quick (fun () ->
        let result, events = check_collecting (Gpt.build ()) in
        let stats =
          match result with
          | Ok s -> s.Entangle.Refine.stats
          | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        in
        let p = Trace.Profile.of_events events in
        check Alcotest.int "iterations" stats.saturation_iterations
          p.Trace.Profile.iterations;
        check Alcotest.int "matches" stats.matches_examined
          p.Trace.Profile.matches;
        check Alcotest.int "unions" stats.unions_applied p.Trace.Profile.unions;
        check Alcotest.int "nodes peak" stats.egraph_nodes_peak
          p.Trace.Profile.nodes_peak;
        check Alcotest.int "operator rows" stats.operators_processed
          (List.fold_left
             (fun acc (r : Trace.Profile.row) -> acc + r.count)
             0 p.Trace.Profile.operators));
    Alcotest.test_case "iteration spans carry the saturation split" `Quick
      (fun () ->
        let _, events = check_collecting (Gpt.build ()) in
        let module E = Trace.Event in
        let split =
          List.fold_left
            (fun acc (ev : E.t) ->
              if ev.phase <> E.End || ev.cat <> "iteration" then acc
              else
                match
                  ( E.arg_float ev "collect_s",
                    E.arg_float ev "apply_s",
                    E.arg_float ev "rebuild_s",
                    E.arg_int ev "minor_words" )
                with
                | Some c, Some a, Some r, Some w
                  when c >= 0. && a >= 0. && r >= 0. && w >= 0 ->
                    acc +. c +. a +. r
                | _ ->
                    Alcotest.failf "iteration end without a split: %a" E.pp ev)
            0. events
        in
        let p = Trace.Profile.of_events events in
        let saturate =
          List.fold_left
            (fun acc (r : Trace.Profile.row) ->
              if r.label = "saturate" then acc +. r.total_s else acc)
            0. p.Trace.Profile.phases
        in
        check Alcotest.bool "split is positive" true (split > 0.);
        check Alcotest.bool "split within the saturate spans" true
          (split <= saturate);
        check (Alcotest.float 1e-9) "profile sums the split" split
          Trace.Profile.(p.collect_s +. p.apply_s +. p.rebuild_s));
  ]

let chrome_tests =
  [
    Alcotest.test_case "emitted trace validates" `Quick (fun () ->
        let _, events = check_collecting (Regression.build ()) in
        let text = Trace.Chrome.to_string events in
        match Trace.Chrome.validate text with
        | Ok n -> check Alcotest.int "event count" (List.length events) n
        | Error e -> Alcotest.failf "invalid trace: %s" e);
    Alcotest.test_case "validation rejects garbage" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Trace.Chrome.validate bad with
            | Ok _ -> Alcotest.failf "accepted %S" bad
            | Error _ -> ())
          [
            "";
            "{}";
            "[{\"name\": 3}]";
            (* balanced JSON but no required categories *)
            "[{\"name\": \"x\", \"cat\": \"c\", \"ph\": \"i\", \"ts\": 0}]";
          ]);
    Alcotest.test_case "streaming and batch emitters agree" `Quick (fun () ->
        let _, events = check_collecting (Regression.build ()) in
        let path = Filename.temp_file "entangle-trace" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            let ch = Trace.Chrome.create oc in
            List.iter (Trace.Sink.emit (Trace.Chrome.sink ch)) events;
            Trace.Chrome.close ch;
            close_out oc;
            let ic = open_in path in
            let n = in_channel_length ic in
            let streamed = really_input_string ic n in
            close_in ic;
            match Trace.Chrome.validate streamed with
            | Ok n -> check Alcotest.int "event count" (List.length events) n
            | Error e -> Alcotest.failf "invalid streamed trace: %s" e));
  ]

let json_tests =
  let parses s =
    match Trace.Json.parse s with Ok _ -> true | Error _ -> false
  in
  [
    Alcotest.test_case "parser accepts valid documents" `Quick (fun () ->
        List.iter
          (fun s -> check Alcotest.bool s true (parses s))
          [
            "null"; "true"; "-12"; "3.5e2"; "\"a\\\"b\\n\""; "[]";
            "[1, [2, {}]]"; "{\"k\": [true, null]}"; "  { \"a\" : 1 }  ";
          ]);
    Alcotest.test_case "parser rejects invalid documents" `Quick (fun () ->
        List.iter
          (fun s -> check Alcotest.bool s false (parses s))
          [
            ""; "["; "[1,]"; "{\"a\" 1}"; "{'a': 1}"; "nul"; "1 2";
            "\"unterminated"; "{\"a\": }";
          ]);
    Alcotest.test_case "member projects object fields" `Quick (fun () ->
        match Trace.Json.parse "{\"a\": 1, \"b\": \"x\"}" with
        | Error e -> Alcotest.fail e
        | Ok v -> (
            (match Trace.Json.member "b" v with
            | Some (Trace.Json.Str s) -> check Alcotest.string "b" "x" s
            | _ -> Alcotest.fail "expected Str");
            match Trace.Json.member "missing" v with
            | None -> ()
            | Some _ -> Alcotest.fail "expected None"));
  ]

(* Observing a run through any sink must not change what the checker
   computes: verdict and stats identical whether the trace goes
   nowhere, to memory, or to a Chrome file. *)
let property_tests =
  (* Project a result to plain data (verdict marker + stats sans wall
     time) so structural equality is meaningful. *)
  let scrub = function
    | Ok (s : Entangle.Refine.success) ->
        ("ok", { s.stats with Entangle.Refine.wall_time_s = 0. })
    | Error (f : Entangle.Refine.failure) ->
        ((Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict), { f.stats with Entangle.Refine.wall_time_s = 0. })
  in
  let sink_transparent =
    QCheck2.Test.make ~count:12 ~name:"sinks never change verdict or stats"
      (* microbatches must divide the model's batch size of 8 *)
      QCheck2.Gen.(pair (oneofl [ 1; 2; 4; 8 ]) bool)
      (fun (microbatches, buggy) ->
        let build () = Regression.build ~microbatches ~buggy () in
        let with_sink sink =
          let config =
            Entangle.Config.default |> Entangle.Config.with_trace sink
          in
          scrub (Instance.check ~config (build ()))
        in
        let baseline = with_sink Trace.Sink.null in
        let collected = with_sink (Trace.Collect.sink (Trace.Collect.create ())) in
        let path = Filename.temp_file "entangle-prop" ".json" in
        let chromed =
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              let oc = open_out path in
              let ch = Trace.Chrome.create oc in
              let r = with_sink (Trace.Chrome.sink ch) in
              Trace.Chrome.close ch;
              close_out oc;
              r)
        in
        baseline = collected && baseline = chromed)
  in
  [ QCheck_alcotest.to_alcotest sink_transparent ]

(* The disabled sink's promise to hot call sites: emitting into it
   builds no event, reads no clock and allocates nothing. *)
let sink_tests =
  [
    Alcotest.test_case "the null sink allocates nothing" `Quick (fun () ->
        let module Sink = Trace.Sink in
        check Alcotest.bool "null is disabled" false (Sink.enabled Sink.null);
        let args = [ ("i", Trace.Event.Int 1) ] in
        let some_args = Some args in
        let body () = () in
        let emit () =
          for _ = 1 to 1_000_000 do
            Sink.span Sink.null ~cat:"test" "span" body;
            Sink.counter Sink.null ~args ~cat:"test" "counter";
            Sink.instant Sink.null ?args:some_args ~cat:"test" "instant"
          done
        in
        let before = Gc.minor_words () in
        emit ();
        check (Alcotest.float 0.) "minor words over 3M calls" 0.
          (Gc.minor_words () -. before));
  ]

let suite =
  [
    ("trace.sink", sink_tests);
    ("trace.golden", golden_tests);
    ("trace.stats", stats_tests);
    ("trace.chrome", chrome_tests);
    ("trace.json", json_tests);
    ("trace.property", property_tests);
  ]
