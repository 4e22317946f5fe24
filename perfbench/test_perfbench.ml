(* The harness's own logic: the statistics, the known-answer table and
   the seeded pass orders. *)

open Perfbench

let float = Alcotest.float 1e-12

let percentile () =
  let xs = [ 40.; 15.; 50.; 35.; 20. ] in
  Alcotest.check float "p0 is the smallest" 15. (Stats.percentile 0. xs);
  Alcotest.check float "p30: rank ceil(1.5) = 2" 20. (Stats.percentile 30. xs);
  Alcotest.check float "p50: rank ceil(2.5) = 3" 35. (Stats.percentile 50. xs);
  Alcotest.check float "p90: rank ceil(4.5) = 5" 50. (Stats.percentile 90. xs);
  Alcotest.check float "p100 is the largest" 50. (Stats.percentile 100. xs);
  let hundred = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check float "p90 of 1..100: ten samples lie beyond" 90.
    (Stats.percentile 90. hundred)

let fastest_pass () =
  Alcotest.check float "each operation's fastest repetition, summed" 6.5
    (Stats.fastest_pass [ [ 3.; 1.; 2. ]; [ 5. ]; [ 0.7; 0.5 ] ]);
  Alcotest.check_raises "an operation without samples"
    (Invalid_argument "Stats.fastest_pass: an operation has no samples") (fun () ->
      ignore (Stats.fastest_pass [ [ 1. ]; [] ]))

let harrell_davis () =
  let close = Alcotest.float 1e-9 in
  let hd = Stats.harrell_davis in
  Alcotest.check close "one sample is its own percentile" 7. (hd 90. [ 7. ]);
  Alcotest.check close "a constant sample" 3. (hd 90. [ 3.; 3.; 3.; 3. ]);
  (* n = 2: the weight of the smaller sample is the mass Beta(3q, 3(1-q))
     puts on [0, 1/2]. At q = 1/3 that is Beta(1, 2), density 2(1-x):
     3/4. At q = 2/3 it is Beta(2, 1), density 2x: 1/4. *)
  Alcotest.check close "p33.3 of {0, 4}: 3/4 * 0 + 1/4 * 4" 1. (hd (100. /. 3.) [ 4.; 0. ]);
  Alcotest.check close "p66.7 of {0, 4}: 1/4 * 0 + 3/4 * 4" 3. (hd (200. /. 3.) [ 0.; 4. ]);
  Alcotest.check close "p50 of a symmetric sample is its centre" 30.
    (hd 50. [ 50.; 10.; 30.; 20.; 40. ]);
  (* 1..100: the i-th sample is ceil(100 x) for x in its interval, so
     the estimate is E[ceil(100 X)], about 100 E[X] + 1/2 for
     X ~ Beta(90.9, 10.1), E[X] = 0.9. *)
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check (Alcotest.float 1e-3) "p90 of 1..100" 90.5 (hd 90. hundred);
  Alcotest.check close "p0 and p100 are the extremes" 101.
    (hd 0. hundred +. hd 100. hundred);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.harrell_davis: no samples")
    (fun () -> ignore (hd 50. []))

let labels zs = List.map (fun (z : Plan.zoo) -> z.Plan.label) zs

let known_answers () =
  let zoo = labels Plan.zoo in
  Alcotest.(check (list string))
    "the 17 zoo entries"
    [
      "gpt-d2l1"; "gpt-d4l1"; "gpt-d4l2"; "gpt-d8l2"; "gpt-d8l4";
      "llama-d2l1"; "llama-d4l2"; "llama-d8l2"; "qwen2-d2l1"; "qwen2-d4l2";
      "moe-d2"; "moe-d4"; "moe-bwd-d2"; "regression"; "linear-bwd"; "dp";
      "pipeline";
    ]
    zoo;
  let bugs = List.map (fun c -> c.Entangle_models.Bugs.id) (Entangle_models.Bugs.all ()) in
  Alcotest.(check (list int)) "the paper's nine bugs" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] bugs;
  let answers w = List.map (fun op -> (Plan.op_name op, Plan.answer op)) (Plan.ops w) in
  let expected_local =
    List.map (fun l -> ("verify:" ^ l, Plan.Refines)) zoo
    @ List.map (fun n -> (Printf.sprintf "localize:bug%d" n, Plan.Detected)) bugs
  in
  Alcotest.(check bool) "every zoo entry refines, bugs 1-9 are detected" true
    (answers Plan.Cold_search = expected_local);
  let served = labels Plan.served_zoo in
  Alcotest.(check int) "14 served zoo entries" 14 (List.length served);
  Alcotest.(check bool) "served entries are zoo entries" true
    (List.for_all (fun l -> List.mem l zoo) served);
  let expected_served =
    List.map (fun l -> ("check:" ^ l, Plan.Verdict "refines")) served
    @ List.map
        (fun n -> (Printf.sprintf "check:bug%d" n, Plan.Verdict "unmapped"))
        [ 1; 2; 6 ]
    @ List.map (fun l -> ("cert-fetch:" ^ l, Plan.Verified)) served
    @ List.map (fun l -> ("cert-push:" ^ l, Plan.Accepted)) served
  in
  Alcotest.(check int) "45 daemon requests" 45 (List.length expected_served);
  Alcotest.(check bool) "daemon answers" true (answers Plan.Serve_mixed = expected_served)

let orders () =
  let order seed pass = Array.to_list (Plan.order ~seed ~pass 26) in
  Alcotest.(check (list int)) "a pass order is a permutation" (List.init 26 Fun.id)
    (List.sort compare (order 7 3));
  Alcotest.(check bool) "the same seed gives the same orders" true
    (List.init 5 (order 7) = List.init 5 (order 7));
  Alcotest.(check bool) "another seed gives other orders" true
    (List.init 5 (order 7) <> List.init 5 (order 8));
  Alcotest.(check bool) "passes of one seed differ" true (order 7 1 <> order 7 2)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick percentile;
          Alcotest.test_case "fastest-of-K pass" `Quick fastest_pass;
          Alcotest.test_case "Harrell-Davis percentile" `Quick harrell_davis;
        ] );
      ("plan", [ Alcotest.test_case "known answers" `Quick known_answers ]);
      ("orders", [ Alcotest.test_case "seeded pass orders" `Quick orders ]);
    ]
