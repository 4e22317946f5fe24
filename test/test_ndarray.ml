(* Tests for the dense tensor interpreter: hand-computed values plus
   algebraic property tests that mirror the lemma corpus (the lemmas are
   separately validated against this interpreter, so its own correctness
   is load-bearing). *)

open Entangle_ir

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let nd_eq = Alcotest.testable Ndarray.pp (Ndarray.approx_equal ~tol:1e-6)

let of2x3 l = Ndarray.of_list [ 2; 3 ] l

let basic_tests =
  [
    Alcotest.test_case "create / get / set" `Quick (fun () ->
        let t = Ndarray.create [ 2; 3 ] 0. in
        Ndarray.set t [ 1; 2 ] 5.;
        check (Alcotest.float 0.) "get" 5. (Ndarray.get t [ 1; 2 ]);
        check (Alcotest.float 0.) "other" 0. (Ndarray.get t [ 0; 0 ]);
        check Alcotest.int "numel" 6 (Ndarray.numel t));
    Alcotest.test_case "init row-major" `Quick (fun () ->
        let t = Ndarray.init [ 2; 2 ] (fun idx -> match idx with
          | [ i; j ] -> float_of_int ((10 * i) + j)
          | _ -> assert false) in
        check (Alcotest.list (Alcotest.float 0.)) "flat" [ 0.; 1.; 10.; 11. ]
          (Ndarray.to_flat_list t));
    Alcotest.test_case "matmul 2x3 * 3x2" `Quick (fun () ->
        let a = of2x3 [ 1.; 2.; 3.; 4.; 5.; 6. ] in
        let b = Ndarray.of_list [ 3; 2 ] [ 7.; 8.; 9.; 10.; 11.; 12. ] in
        check nd_eq "result" (Ndarray.of_list [ 2; 2 ] [ 58.; 64.; 139.; 154. ])
          (Ndarray.matmul a b));
    Alcotest.test_case "batched matmul broadcasts rhs" `Quick (fun () ->
        let a = Ndarray.init [ 2; 2; 2 ] (fun _ -> 1.) in
        let b = Ndarray.of_list [ 2; 2 ] [ 1.; 0.; 0.; 1. ] in
        check nd_eq "identity" a (Ndarray.matmul a b));
    Alcotest.test_case "concat / slice round trip" `Quick (fun () ->
        let a = of2x3 [ 1.; 2.; 3.; 4.; 5.; 6. ] in
        let b = of2x3 [ 7.; 8.; 9.; 10.; 11.; 12. ] in
        let c = Ndarray.concat ~dim:0 [ a; b ] in
        check (Alcotest.list Alcotest.int) "dims" [ 4; 3 ] (Ndarray.dims c);
        check nd_eq "first" a (Ndarray.slice ~dim:0 ~start:0 ~stop:2 c);
        check nd_eq "second" b (Ndarray.slice ~dim:0 ~start:2 ~stop:4 c));
    Alcotest.test_case "transpose" `Quick (fun () ->
        let a = of2x3 [ 1.; 2.; 3.; 4.; 5.; 6. ] in
        let t = Ndarray.transpose ~dim0:0 ~dim1:1 a in
        check (Alcotest.list Alcotest.int) "dims" [ 3; 2 ] (Ndarray.dims t);
        check (Alcotest.float 0.) "t[2;1]" 6. (Ndarray.get t [ 2; 1 ]);
        check nd_eq "involution" a (Ndarray.transpose ~dim0:0 ~dim1:1 t));
    Alcotest.test_case "pad embeds and zero-fills" `Quick (fun () ->
        let a = Ndarray.of_list [ 2 ] [ 1.; 2. ] in
        let p = Ndarray.pad ~dim:0 ~before:1 ~after:2 a in
        check (Alcotest.list (Alcotest.float 0.)) "flat" [ 0.; 1.; 2.; 0.; 0. ]
          (Ndarray.to_flat_list p));
    Alcotest.test_case "reductions" `Quick (fun () ->
        let a = of2x3 [ 1.; 2.; 3.; 4.; 5.; 6. ] in
        check nd_eq "sum rows" (Ndarray.of_list [ 3 ] [ 5.; 7.; 9. ])
          (Ndarray.reduce_sum ~dim:0 ~keepdim:false a);
        check nd_eq "mean cols keepdim" (Ndarray.of_list [ 2; 1 ] [ 2.; 5. ])
          (Ndarray.reduce_mean ~dim:1 ~keepdim:true a);
        check nd_eq "max" (Ndarray.of_list [ 2 ] [ 3.; 6. ])
          (Ndarray.reduce_max ~dim:1 ~keepdim:false a));
    Alcotest.test_case "softmax rows sum to one" `Quick (fun () ->
        let a = of2x3 [ 0.3; -1.; 2.; 4.; 0.; -0.5 ] in
        let sm = Ndarray.softmax ~dim:1 a in
        let sums = Ndarray.reduce_sum ~dim:1 ~keepdim:false sm in
        check nd_eq "ones" (Ndarray.of_list [ 2 ] [ 1.; 1. ]) sums);
    Alcotest.test_case "embedding" `Quick (fun () ->
        let w = Ndarray.of_list [ 3; 2 ] [ 0.; 1.; 10.; 11.; 20.; 21. ] in
        let ids = Ndarray.of_list [ 2 ] [ 2.; 0. ] in
        check nd_eq "lookup" (Ndarray.of_list [ 2; 2 ] [ 20.; 21.; 0.; 1. ])
          (Ndarray.embedding w ids));
    Alcotest.test_case "mse loss" `Quick (fun () ->
        let p = Ndarray.of_list [ 2 ] [ 1.; 3. ] in
        let t = Ndarray.of_list [ 2 ] [ 0.; 1. ] in
        check nd_eq "mse" (Ndarray.scalar 2.5) (Ndarray.mse_loss p t));
    Alcotest.test_case "cross entropy of uniform logits" `Quick (fun () ->
        let logits = Ndarray.create [ 2; 4 ] 0. in
        let targets = Ndarray.of_list [ 2 ] [ 1.; 3. ] in
        check nd_eq "log 4" (Ndarray.scalar (log 4.))
          (Ndarray.cross_entropy logits targets));
    Alcotest.test_case "rope norm preservation" `Quick (fun () ->
        (* When cos^2 + sin^2 = 1 per position, rope preserves the norm
           of each (x_i, x_{i+d/2}) pair; check on a rotation by pi/3. *)
        let x = Ndarray.of_list [ 1; 2 ] [ 3.; 4. ] in
        let c = cos (Float.pi /. 3.) and s = sin (Float.pi /. 3.) in
        let cos_t = Ndarray.create [ 1; 2 ] c in
        let sin_t = Ndarray.create [ 1; 2 ] s in
        let y = Ndarray.rope x cos_t sin_t in
        let norm t = (Ndarray.get t [ 0; 0 ] ** 2.) +. (Ndarray.get t [ 0; 1 ] ** 2.) in
        check (Alcotest.float 1e-9) "norm" (norm x) (norm y));
  ]

let st = Random.State.make [| 7 |]
let rand dims = Ndarray.random st dims

(* The operand pairs [map2 f a b] must hand [f], in the result's
   row-major order, derived one element at a time: the result index
   with its leading dimensions dropped to the operand's rank, and 0 on
   the operand's size-1 dimensions. *)
let reference_pairs a b =
  let da = Ndarray.dims a and db = Ndarray.dims b in
  let n = max (List.length da) (List.length db) in
  let pad d = List.init (n - List.length d) (fun _ -> 1) @ d in
  let dims = List.map2 max (pad da) (pad db) in
  let rec indices = function
    | [] -> [ [] ]
    | d :: rest ->
        List.concat_map
          (fun i -> List.map (List.cons i) (indices rest))
          (List.init d Fun.id)
  in
  let operand t d idx =
    let drop = n - List.length d in
    Ndarray.get t
      (List.map2
         (fun k j -> if k = 1 then 0 else j)
         d
         (List.filteri (fun i _ -> i >= drop) idx))
  in
  ( dims,
    List.map (fun idx -> (operand a da idx, operand b db idx)) (indices dims) )

(* A result shape and two operands that broadcast to it: each drops
   some leading dimensions and turns some others into 1. Entries are
   distinct, so a pair names the positions it came from. *)
let gen_broadcast =
  let open QCheck.Gen in
  list_size (int_range 0 4) (int_range 1 3) >>= fun dims ->
  let operand =
    int_range 0 (List.length dims) >>= fun drop ->
    flatten_l
      (List.filteri (fun i _ -> i >= drop) dims
      |> List.map (fun d -> map (fun one -> if one then 1 else d) bool))
  in
  pair operand operand

let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let numbered base dims =
  let next = ref base in
  Ndarray.init dims (fun _ ->
      next := !next +. 1.;
      !next)

let property_tests =
  let gen_dims = QCheck.(pair (int_range 1 4) (int_range 1 4)) in
  [
    qtest
      (QCheck.Test.make ~name:"map2 hands f the per-element broadcast pairs"
         ~count:300
         (QCheck.make ~print:QCheck.Print.(pair (list int) (list int))
            gen_broadcast)
         (fun (da, db) ->
           let a = numbered 0. da and b = numbered 1000. db in
           let f x y = x -. (2. *. y) in
           let seen = ref [] in
           let out =
             Ndarray.map2
               (fun x y ->
                 seen := (x, y) :: !seen;
                 f x y)
               a b
           in
           let dims, pairs = reference_pairs a b in
           Ndarray.dims out = dims
           && List.rev !seen = pairs
           && List.equal same_bits (Ndarray.to_flat_list out)
                (List.map (fun (x, y) -> f x y) pairs)));
    qtest
      (QCheck.Test.make ~name:"broadcast add commutes" ~count:50 gen_dims
         (fun (m, n) ->
           let a = rand [ m; n ] and b = rand [ n ] in
           Ndarray.approx_equal (Ndarray.add a b) (Ndarray.add b a)));
    qtest
      (QCheck.Test.make ~name:"concat then slice is identity" ~count:50
         (QCheck.triple (QCheck.int_range 1 4) (QCheck.int_range 1 4)
            (QCheck.int_range 1 3))
         (fun (m, n, k) ->
           let a = rand [ m; k ] and b = rand [ n; k ] in
           let c = Ndarray.concat ~dim:0 [ a; b ] in
           Ndarray.approx_equal a (Ndarray.slice ~dim:0 ~start:0 ~stop:m c)
           && Ndarray.approx_equal b
                (Ndarray.slice ~dim:0 ~start:m ~stop:(m + n) c)));
    qtest
      (QCheck.Test.make ~name:"block matmul = sum of products" ~count:50
         (QCheck.triple (QCheck.int_range 1 4) (QCheck.int_range 1 4)
            (QCheck.int_range 1 4))
         (fun (m, k, n) ->
           let a1 = rand [ m; k ] and a2 = rand [ m; k ] in
           let b1 = rand [ k; n ] and b2 = rand [ k; n ] in
           let whole =
             Ndarray.matmul
               (Ndarray.concat ~dim:1 [ a1; a2 ])
               (Ndarray.concat ~dim:0 [ b1; b2 ])
           in
           let blocks = Ndarray.add (Ndarray.matmul a1 b1) (Ndarray.matmul a2 b2) in
           Ndarray.approx_equal ~tol:1e-4 whole blocks));
    qtest
      (QCheck.Test.make ~name:"row-split matmul" ~count:50
         (QCheck.triple (QCheck.int_range 1 4) (QCheck.int_range 1 4)
            (QCheck.int_range 1 4))
         (fun (m, k, n) ->
           let a1 = rand [ m; k ] and a2 = rand [ m; k ] in
           let b = rand [ k; n ] in
           Ndarray.approx_equal ~tol:1e-4
             (Ndarray.matmul (Ndarray.concat ~dim:0 [ a1; a2 ]) b)
             (Ndarray.concat ~dim:0 [ Ndarray.matmul a1 b; Ndarray.matmul a2 b ])));
    qtest
      (QCheck.Test.make ~name:"reduce_sum splits over concat" ~count:50
         (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 1 4))
         (fun (m, n) ->
           let a = rand [ m; 3 ] and b = rand [ n; 3 ] in
           Ndarray.approx_equal ~tol:1e-4
             (Ndarray.reduce_sum ~dim:0 ~keepdim:false
                (Ndarray.concat ~dim:0 [ a; b ]))
             (Ndarray.add
                (Ndarray.reduce_sum ~dim:0 ~keepdim:false a)
                (Ndarray.reduce_sum ~dim:0 ~keepdim:false b))));
    qtest
      (QCheck.Test.make ~name:"softmax distributes over row concat" ~count:50
         (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 1 4))
         (fun (m, n) ->
           let a = rand [ m; 5 ] and b = rand [ n; 5 ] in
           Ndarray.approx_equal ~tol:1e-5
             (Ndarray.softmax ~dim:1 (Ndarray.concat ~dim:0 [ a; b ]))
             (Ndarray.concat ~dim:0
                [ Ndarray.softmax ~dim:1 a; Ndarray.softmax ~dim:1 b ])));
    qtest
      (QCheck.Test.make ~name:"layernorm distributes over row concat" ~count:50
         (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 1 4))
         (fun (m, n) ->
           let a = rand [ m; 6 ] and b = rand [ n; 6 ] in
           let w = rand [ 6 ] and bias = rand [ 6 ] in
           let ln x = Ndarray.layernorm ~eps:1e-5 x w bias in
           Ndarray.approx_equal ~tol:1e-5
             (ln (Ndarray.concat ~dim:0 [ a; b ]))
             (Ndarray.concat ~dim:0 [ ln a; ln b ])));
    qtest
      (QCheck.Test.make ~name:"mse over equal halves averages" ~count:50
         (QCheck.int_range 1 5)
         (fun m ->
           let p1 = rand [ m; 2 ] and p2 = rand [ m; 2 ] in
           let t1 = rand [ m; 2 ] and t2 = rand [ m; 2 ] in
           let whole =
             Ndarray.mse_loss
               (Ndarray.concat ~dim:0 [ p1; p2 ])
               (Ndarray.concat ~dim:0 [ t1; t2 ])
           in
           let halves =
             Ndarray.scale 0.5
               (Ndarray.add (Ndarray.mse_loss p1 t1) (Ndarray.mse_loss p2 t2))
           in
           Ndarray.approx_equal ~tol:1e-5 whole halves));
  ]

let suite =
  [ ("ndarray.basic", basic_tests); ("ndarray.properties", property_tests) ]
