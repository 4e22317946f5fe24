(* Coverage tests for the reference interpreter's operator dispatch:
   every operator of the IR evaluates, with hand-checked values for the
   ones not already covered by the ndarray suite (collectives, fused and
   HLO kernels, rope, graph execution paths and error reporting). *)

open Entangle_symbolic
open Entangle_ir
module B = Graph.Builder

let check = Alcotest.check
let sd = Symdim.of_int
let env = Interp.env_of_list [ ("s", 4) ]
let nd_eq = Alcotest.testable Ndarray.pp (Ndarray.approx_equal ~tol:1e-6)
let nd l dims = Ndarray.of_list dims l

let eval op args = Interp.eval_op env op args

let op_tests =
  let a = nd [ 1.; 2.; 3.; 4. ] [ 2; 2 ] in
  let b = nd [ 10.; 20.; 30.; 40. ] [ 2; 2 ] in
  [
    Alcotest.test_case "collectives" `Quick (fun () ->
        check nd_eq "all_reduce" (Ndarray.add a b) (eval Op.All_reduce [ a; b ]);
        check nd_eq "all_gather"
          (Ndarray.concat ~dim:0 [ a; b ])
          (eval (Op.All_gather { dim = 0 }) [ a; b ]);
        check nd_eq "reduce_scatter second chunk"
          (Ndarray.slice ~dim:0 ~start:1 ~stop:2 (Ndarray.add a b))
          (eval (Op.Reduce_scatter { dim = 0; index = 1; count = 2 }) [ a; b ]));
    Alcotest.test_case "reduce_scatter resolves a negative axis" `Quick
      (fun () ->
        (* Shape inference resolves dim -1 against the rank; so does the
           interpreter, which once raised Invalid_argument "List.nth". *)
        List.iter
          (fun index ->
            let rs dim = eval (Op.Reduce_scatter { dim; index; count = 2 }) in
            let x = Ndarray.init [ 2; 4 ] (fun i -> float_of_int (List.hd i)) in
            let y = Ndarray.init [ 2; 4 ] (fun i -> float_of_int (List.nth i 1)) in
            check nd_eq "dim -1 is dim 1" (rs 1 [ x; y ]) (rs (-1) [ x; y ]);
            check (Alcotest.list Alcotest.int) "dims" [ 2; 2 ]
              (Ndarray.dims (rs (-1) [ x; y ])))
          [ 0; 1 ]);
    Alcotest.test_case "fused and hlo kernels" `Quick (fun () ->
        check nd_eq "swiglu"
          (Ndarray.mul (Ndarray.silu a) b)
          (eval Op.Swiglu_fused [ a; b ]);
        check nd_eq "hlo_dot" (Ndarray.matmul a b) (eval Op.Hlo_dot [ a; b ]);
        check nd_eq "hlo_slice"
          (Ndarray.slice ~dim:1 ~start:0 ~stop:1 a)
          (eval (Op.Hlo_slice { dim = 1; start = sd 0; stop = sd 1 }) [ a ]);
        check nd_eq "hlo_concatenate"
          (Ndarray.concat ~dim:1 [ a; b ])
          (eval (Op.Hlo_concatenate { dim = 1 }) [ a; b ]));
    Alcotest.test_case "symbolic slice bounds use the environment" `Quick
      (fun () ->
        let x = Ndarray.init [ 8 ] (fun i -> float_of_int (List.hd i)) in
        (* slice [s, 2s) with s = 4 *)
        check nd_eq "slice"
          (nd [ 4.; 5.; 6.; 7. ] [ 4 ])
          (eval
             (Op.Slice
                { dim = 0; start = Symdim.sym "s";
                  stop = Symdim.mul_int 2 (Symdim.sym "s") })
             [ x ]));
    Alcotest.test_case "scale uses exact rationals" `Quick (fun () ->
        check nd_eq "scale 3/4"
          (Ndarray.scale 0.75 a)
          (eval (Op.Scale (Rat.make 3 4)) [ a ]));
    Alcotest.test_case "unary dispatch" `Quick (fun () ->
        check nd_eq "neg" (Ndarray.scale (-1.) a) (eval Op.Neg [ a ]);
        check nd_eq "identity" a (eval Op.Identity [ a ]);
        check nd_eq "rsqrt"
          (Ndarray.map (fun v -> 1. /. sqrt v) a)
          (eval Op.Rsqrt [ a ]);
        check nd_eq "relu"
          (Ndarray.map (fun v -> Float.max 0. v) (Ndarray.sub a b))
          (eval Op.Relu [ Ndarray.sub a b ]));
    Alcotest.test_case "rope dispatch matches ndarray" `Quick (fun () ->
        let x = nd [ 1.; 2.; 3.; 4. ] [ 1; 4 ] in
        let cos = Ndarray.create [ 1; 4 ] 0.5 in
        let sin = Ndarray.create [ 1; 4 ] 0.25 in
        check nd_eq "rope" (Ndarray.rope x cos sin) (eval Op.Rope [ x; cos; sin ]));
    Alcotest.test_case "arity errors raise" `Quick (fun () ->
        check Alcotest.bool "add/1" true
          (try ignore (eval Op.Add [ a ]); false
           with Invalid_argument _ -> true));
  ]

let run_tests =
  [
    Alcotest.test_case "graph execution in order" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ Symdim.sym "s" ] in
        let y = B.add b Op.Neg [ x ] in
        let z = B.add b Op.Exp [ y ] in
        B.output b z;
        let g = B.finish b in
        let xv = nd [ 0.; 1.; 2.; 3. ] [ 4 ] in
        let vals = Interp.run env g ~inputs:[ (x, xv) ] in
        check nd_eq "z = exp(-x)"
          (Ndarray.map (fun v -> exp (-.v)) xv)
          (Tensor.Map.find z vals);
        check nd_eq "intermediate recorded"
          (Ndarray.map (fun v -> -.v) xv)
          (Tensor.Map.find y vals));
    Alcotest.test_case "missing input reported" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 2 ] in
        B.output b (B.add b Op.Neg [ x ]);
        let g = B.finish b in
        check Alcotest.bool "raises" true
          (try ignore (Interp.run env g ~inputs:[]); false
           with Invalid_argument _ -> true));
    Alcotest.test_case "wrong input dims reported" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 2 ] in
        B.output b x;
        let g = B.finish b in
        check Alcotest.bool "raises" true
          (try
             ignore (Interp.run env g ~inputs:[ (x, Ndarray.create [ 3 ] 0.) ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "random_inputs respects integer dtypes" `Quick (fun () ->
        let b = B.create "g" in
        (* vocab 8 matches random_inputs' default id range [0, 8) *)
        let w = B.input b "w" [ sd 8; sd 2 ] in
        let ids = B.input b ~dtype:Dtype.I64 "ids" [ sd 3 ] in
        B.output b (B.add b Op.Embedding [ w; ids ]);
        let g = B.finish b in
        let st = Random.State.make [| 3 |] in
        let inputs = Interp.random_inputs st env g in
        let _, idv = List.find (fun (t, _) -> Tensor.equal t ids) inputs in
        check Alcotest.bool "ids integral" true
          (List.for_all
             (fun v -> Float.is_integer v && v >= 0. && v < 8.)
             (Ndarray.to_flat_list idv));
        (* and the graph runs end to end on them *)
        ignore (Interp.run env g ~inputs));
    Alcotest.test_case "eval_expr composes" `Quick (fun () ->
        let t1 = Tensor.create ~name:"t1" [ sd 2 ] in
        let t2 = Tensor.create ~name:"t2" [ sd 2 ] in
        let e =
          Expr.app Op.Sum_n
            [ Expr.leaf t1; Expr.app (Op.Scale (Rat.of_int 2)) [ Expr.leaf t2 ] ]
        in
        let lookup t =
          if Tensor.equal t t1 then nd [ 1.; 2. ] [ 2 ] else nd [ 10.; 20. ] [ 2 ]
        in
        check nd_eq "1+2*10" (nd [ 21.; 42. ] [ 2 ])
          (Interp.eval_expr env lookup e));
    Alcotest.test_case "unbound symbol reported" `Quick (fun () ->
        check Alcotest.bool "raises" true
          (try ignore (Interp.lookup (Interp.env_of_list []) "zz"); false
           with Invalid_argument _ -> true));
  ]

let suite = [ ("interp.ops", op_tests); ("interp.run", run_tests) ]
