(* Tests for the tensor IR: dtypes, shapes, operator shape/dtype
   inference, tensors, graphs, and expressions. *)

open Entangle_symbolic
open Entangle_ir

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let sd = Symdim.of_int
let store = Constraint_store.add_positive Constraint_store.empty "s"
let s = Symdim.sym "s"

let shape_eq = Alcotest.testable Shape.pp Shape.equal_syntactic

let lint_errors g =
  Entangle_analysis.(Diagnostic.count_errors (Graph_check.check g))

let infer op shapes =
  match Op.infer_shape store op shapes with
  | Ok sh -> sh
  | Error e -> Alcotest.failf "unexpected shape error: %s" e

let infer_fails op shapes =
  match Op.infer_shape store op shapes with
  | Ok sh -> Alcotest.failf "expected error, got %a" Shape.pp sh
  | Error _ -> ()

(* --- dtype -------------------------------------------------------------- *)

let dtype_tests =
  [
    Alcotest.test_case "promotion" `Quick (fun () ->
        let open Dtype in
        check Alcotest.bool "f32+f16" true (promote F32 F16 = Some F32);
        check Alcotest.bool "f16+bf16 widens" true (promote F16 BF16 = Some F32);
        check Alcotest.bool "i64+bool" true (promote I64 Bool = Some I64);
        check Alcotest.bool "bool+bool" true (promote Bool Bool = Some Bool));
    Alcotest.test_case "predicates" `Quick (fun () ->
        check Alcotest.bool "f32 float" true (Dtype.is_float Dtype.F32);
        check Alcotest.bool "i64 int" true (Dtype.is_integer Dtype.I64);
        check Alcotest.bool "bool not int" false (Dtype.is_integer Dtype.Bool));
  ]

(* --- shape -------------------------------------------------------------- *)

(* The [Format] printer [Shape.to_string] replaced. *)
let format_shape ppf s =
  Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ", ") Test_symbolic.format_pp) s

let renders_as_format sh =
  let want = Fmt.str "%a" format_shape sh in
  String.equal (Shape.to_string sh) want
  && String.equal (Fmt.str "%a" Shape.pp sh) want

let shape_tests =
  [
    qtest
      (QCheck.Test.make ~name:"to_string writes what Format wrote" ~count:500
         (QCheck.make
            ~print:(Fmt.str "%a" format_shape)
            QCheck.Gen.(list_size (int_range 0 4) Test_symbolic.gen_symdim))
         renders_as_format);
    Alcotest.test_case "every zoo and bug tensor shape renders as Format did"
      `Quick (fun () ->
        let graphs (inst : Entangle_models.Instance.t) = [ inst.gs; inst.gd ] in
        List.iter
          (fun g ->
            List.iter
              (fun t ->
                if not (renders_as_format (Tensor.shape t)) then
                  Alcotest.failf "%s renders as %s" (Tensor.name t)
                    (Shape.to_string (Tensor.shape t)))
              (Graph.inputs g
              @ List.map Node.output (Graph.nodes g)))
          (List.concat_map
             (fun (z : Perfbench.Plan.zoo) -> graphs (z.build ()))
             Perfbench.Plan.zoo
          @ List.concat_map
              (fun (c : Entangle_models.Bugs.case) -> graphs c.instance)
              (Entangle_models.Bugs.all ())));
    Alcotest.test_case "dim with negative axis" `Quick (fun () ->
        let sh = [ s; sd 4; sd 8 ] in
        check Alcotest.bool "dim -1" true (Symdim.equal (Shape.dim sh (-1)) (sd 8));
        check Alcotest.bool "dim 0" true (Symdim.equal (Shape.dim sh 0) s);
        Alcotest.check_raises "out of range"
          (Invalid_argument "Shape: axis 3 out of range for rank 3") (fun () ->
            ignore (Shape.dim sh 3)));
    Alcotest.test_case "numel" `Quick (fun () ->
        check Alcotest.bool "symbolic numel" true
          (match Shape.numel [ s; sd 4 ] with
          | Some n -> Symdim.equal n (Symdim.mul_int 4 s)
          | None -> false);
        check Alcotest.bool "two symbols not affine" true
          (Shape.numel [ s; Symdim.sym "t" ] = None));
    Alcotest.test_case "broadcast" `Quick (fun () ->
        check (Alcotest.option shape_eq) "[s;4] with [4]"
          (Some [ s; sd 4 ])
          (Shape.broadcast store [ s; sd 4 ] [ sd 4 ]);
        check (Alcotest.option shape_eq) "[s;1] with [s;4]"
          (Some [ s; sd 4 ])
          (Shape.broadcast store [ s; sd 1 ] [ s; sd 4 ]);
        check (Alcotest.option shape_eq) "incompatible" None
          (Shape.broadcast store [ sd 3 ] [ sd 4 ]));
    Alcotest.test_case "concrete" `Quick (fun () ->
        check (Alcotest.list Alcotest.int) "eval" [ 6; 4 ]
          (Shape.concrete (fun _ -> 6) [ s; sd 4 ]));
  ]

(* --- operator shape inference ------------------------------------------- *)

let op_shape_tests =
  [
    Alcotest.test_case "elementwise broadcasting" `Quick (fun () ->
        check shape_eq "add" [ s; sd 4 ] (infer Op.Add [ [ s; sd 4 ]; [ sd 4 ] ]);
        infer_fails Op.Add [ [ sd 3 ]; [ sd 4 ] ]);
    Alcotest.test_case "matmul shapes" `Quick (fun () ->
        check shape_eq "2d" [ s; sd 8 ] (infer Op.Matmul [ [ s; sd 4 ]; [ sd 4; sd 8 ] ]);
        check shape_eq "batched x 2d" [ sd 2; s; sd 8 ]
          (infer Op.Matmul [ [ sd 2; s; sd 4 ]; [ sd 4; sd 8 ] ]);
        check shape_eq "batched x batched" [ sd 2; sd 3; sd 8 ]
          (infer Op.Matmul [ [ sd 2; sd 3; sd 4 ]; [ sd 2; sd 4; sd 8 ] ]);
        infer_fails Op.Matmul [ [ s; sd 4 ]; [ sd 5; sd 8 ] ];
        infer_fails Op.Matmul [ [ sd 4 ]; [ sd 4; sd 8 ] ]);
    Alcotest.test_case "concat" `Quick (fun () ->
        check shape_eq "same dim sums" [ Symdim.mul_int 2 s; sd 4 ]
          (infer (Op.Concat { dim = 0 }) [ [ s; sd 4 ]; [ s; sd 4 ] ]);
        infer_fails (Op.Concat { dim = 0 }) [ [ s; sd 4 ]; [ s; sd 5 ] ]);
    Alcotest.test_case "slice" `Quick (fun () ->
        check shape_eq "basic" [ sd 3; sd 4 ]
          (infer (Op.Slice { dim = 0; start = sd 1; stop = sd 4 }) [ [ sd 8; sd 4 ] ]);
        check shape_eq "symbolic width" [ s; sd 4 ]
          (infer
             (Op.Slice { dim = 0; start = s; stop = Symdim.mul_int 2 s })
             [ [ Symdim.mul_int 2 s; sd 4 ] ]);
        infer_fails (Op.Slice { dim = 0; start = sd 5; stop = sd 3 }) [ [ sd 8 ] ];
        infer_fails (Op.Slice { dim = 0; start = sd 0; stop = sd 9 }) [ [ sd 8 ] ]);
    Alcotest.test_case "transpose / reshape / pad" `Quick (fun () ->
        check shape_eq "transpose" [ sd 4; s ]
          (infer (Op.Transpose { dim0 = 0; dim1 = 1 }) [ [ s; sd 4 ] ]);
        check shape_eq "reshape" [ sd 2; sd 6 ]
          (infer (Op.Reshape { shape = [ sd 2; sd 6 ] }) [ [ sd 3; sd 4 ] ]);
        infer_fails (Op.Reshape { shape = [ sd 5 ] }) [ [ sd 3; sd 4 ] ];
        check shape_eq "pad" [ Symdim.add s (sd 3); sd 4 ]
          (infer (Op.Pad { dim = 0; before = sd 1; after = sd 2 }) [ [ s; sd 4 ] ]));
    Alcotest.test_case "reductions" `Quick (fun () ->
        check shape_eq "keepdim" [ s; sd 1 ]
          (infer (Op.Reduce_sum { dim = 1; keepdim = true }) [ [ s; sd 4 ] ]);
        check shape_eq "dropdim" [ sd 4 ]
          (infer (Op.Reduce_mean { dim = 0; keepdim = false }) [ [ s; sd 4 ] ]));
    Alcotest.test_case "collectives" `Quick (fun () ->
        check shape_eq "all_reduce" [ s; sd 4 ]
          (infer Op.All_reduce [ [ s; sd 4 ]; [ s; sd 4 ] ]);
        check shape_eq "all_gather" [ Symdim.mul_int 2 s; sd 4 ]
          (infer (Op.All_gather { dim = 0 }) [ [ s; sd 4 ]; [ s; sd 4 ] ]);
        check shape_eq "reduce_scatter" [ s; sd 4 ]
          (infer
             (Op.Reduce_scatter { dim = 0; index = 1; count = 2 })
             [ [ Symdim.mul_int 2 s; sd 4 ]; [ Symdim.mul_int 2 s; sd 4 ] ]);
        infer_fails (Op.Reduce_scatter { dim = 0; index = 2; count = 2 })
          [ [ s; sd 4 ] ]);
    Alcotest.test_case "nn kernels" `Quick (fun () ->
        check shape_eq "layernorm" [ s; sd 4 ]
          (infer (Op.Layernorm { eps = 1e-5 }) [ [ s; sd 4 ]; [ sd 4 ]; [ sd 4 ] ]);
        infer_fails (Op.Layernorm { eps = 1e-5 }) [ [ s; sd 4 ]; [ sd 3 ]; [ sd 4 ] ];
        check shape_eq "rmsnorm" [ s; sd 4 ]
          (infer (Op.Rmsnorm { eps = 1e-5 }) [ [ s; sd 4 ]; [ sd 4 ] ]);
        check shape_eq "embedding" [ s; sd 8 ]
          (infer Op.Embedding [ [ sd 100; sd 8 ]; [ s ] ]);
        check shape_eq "rope" [ s; sd 8 ]
          (infer Op.Rope [ [ s; sd 8 ]; [ s; sd 8 ]; [ s; sd 8 ] ]);
        check shape_eq "mse scalar" [] (infer Op.Mse_loss [ [ s; sd 1 ]; [ s; sd 1 ] ]);
        check shape_eq "cross entropy" []
          (infer Op.Cross_entropy [ [ s; sd 16 ]; [ s ] ]));
    Alcotest.test_case "arity checking" `Quick (fun () ->
        infer_fails Op.Add [ [ sd 4 ] ];
        infer_fails Op.Neg [ [ sd 4 ]; [ sd 4 ] ];
        check Alcotest.bool "variadic ok" true (Op.arity_ok Op.Sum_n 5);
        check Alcotest.bool "variadic min" false (Op.arity_ok Op.Sum_n 0));
    Alcotest.test_case "dtype inference" `Quick (fun () ->
        check Alcotest.bool "embedding needs int ids" true
          (Op.infer_dtype Op.Embedding [ Dtype.F32; Dtype.F32 ] |> Result.is_error);
        check Alcotest.bool "embedding ok" true
          (Op.infer_dtype Op.Embedding [ Dtype.F32; Dtype.I64 ] = Ok Dtype.F32));
  ]

(* Every operator that carries an axis, at ranks 0-4 and axes -5..5,
   over inputs that are otherwise well-formed: shape inference returns
   [Error] exactly when an axis is out of range, and never raises. *)
let axis_tests =
  let in_range rank a = a >= -rank && a < rank in
  let axes = List.init 11 (fun i -> i - 5) in
  (* Each operator at one rank: (axes it carries, the operator, its
     inputs). *)
  let cases rank =
    let sh = List.init rank (fun _ -> sd 4) in
    let one dim f = ([ dim ], f dim, [ sh ]) in
    let two dim f = ([ dim ], f dim, [ sh; sh ]) in
    List.concat_map
      (fun dim ->
        [
          two dim (fun dim -> Op.Concat { dim });
          two dim (fun dim -> Op.Hlo_concatenate { dim });
          one dim (fun dim -> Op.Slice { dim; start = sd 0; stop = sd 2 });
          one dim (fun dim -> Op.Hlo_slice { dim; start = sd 0; stop = sd 2 });
          one dim (fun dim -> Op.Pad { dim; before = sd 1; after = sd 1 });
          two dim (fun dim -> Op.Reduce_scatter { dim; index = 0; count = 2 });
          two dim (fun dim -> Op.All_gather { dim });
          one dim (fun dim -> Op.Softmax { dim });
        ]
        @ List.concat_map
            (fun keepdim ->
              [
                one dim (fun dim -> Op.Reduce_sum { dim; keepdim });
                one dim (fun dim -> Op.Reduce_mean { dim; keepdim });
                one dim (fun dim -> Op.Reduce_max { dim; keepdim });
              ])
            [ false; true ]
        @ List.map
            (fun dim1 ->
              ([ dim; dim1 ], Op.Transpose { dim0 = dim; dim1 }, [ sh ]))
            axes)
      axes
  in
  [
    Alcotest.test_case "an axis out of range is an Error, never a raise"
      `Quick (fun () ->
        let names = ref [] in
        List.iter
          (fun rank ->
            List.iter
              (fun (dims, op, inputs) ->
                names := Op.name op :: !names;
                let expected = List.for_all (in_range rank) dims in
                match Op.infer_shape store op inputs with
                | Ok _ when expected -> ()
                | Error _ when not expected -> ()
                | Ok _ ->
                    Alcotest.failf "%s at rank %d: accepted" (Op.key op) rank
                | Error e ->
                    Alcotest.failf "%s at rank %d: %s" (Op.key op) rank e
                | exception e ->
                    Alcotest.failf "%s at rank %d raised %s" (Op.key op) rank
                      (Printexc.to_string e))
              (cases rank))
          [ 0; 1; 2; 3; 4 ];
        check Alcotest.int "axis-carrying operators" 12
          (List.length (List.sort_uniq String.compare !names)));
  ]

(* --- operator identity --------------------------------------------------- *)

let op_identity_tests =
  [
    Alcotest.test_case "key distinguishes attributes" `Quick (fun () ->
        check Alcotest.bool "concat dims" false
          (Op.equal (Op.Concat { dim = 0 }) (Op.Concat { dim = 1 }));
        check Alcotest.bool "slice bounds" false
          (Op.equal
             (Op.Slice { dim = 0; start = sd 0; stop = sd 1 })
             (Op.Slice { dim = 0; start = sd 0; stop = sd 2 }));
        check Alcotest.bool "same symbolic slice" true
          (Op.equal
             (Op.Slice { dim = 0; start = Symdim.add s s; stop = sd 2 })
             (Op.Slice { dim = 0; start = Symdim.mul_int 2 s; stop = sd 2 })));
    Alcotest.test_case "cleanliness classification" `Quick (fun () ->
        List.iter
          (fun op -> check Alcotest.bool (Op.name op) true (Op.is_clean op))
          [
            Op.Identity; Op.Concat { dim = 0 };
            Op.Slice { dim = 0; start = sd 0; stop = sd 1 };
            Op.Transpose { dim0 = 0; dim1 = 1 }; Op.Sum_n; Op.All_reduce;
            Op.All_gather { dim = 0 };
            Op.Reduce_scatter { dim = 0; index = 0; count = 2 };
          ];
        List.iter
          (fun op -> check Alcotest.bool (Op.name op) false (Op.is_clean op))
          [
            Op.Add; Op.Matmul; Op.Scale (Rat.make 1 2); Op.Softmax { dim = 1 };
            Op.Mse_loss; Op.Gelu; Op.Reduce_sum { dim = 0; keepdim = false };
          ]);
  ]

(* --- tensors, graphs ------------------------------------------------------ *)

let graph_tests =
  let module B = Graph.Builder in
  [
    Alcotest.test_case "tensor ids unique" `Quick (fun () ->
        let a = Tensor.create ~name:"a" [ sd 1 ] in
        let b = Tensor.create ~name:"a" [ sd 1 ] in
        check Alcotest.bool "distinct" false (Tensor.equal a b));
    Alcotest.test_case "builder infers shapes" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ s; sd 4 ] in
        let w = B.input b "w" [ sd 4; sd 2 ] in
        let y = B.add b Op.Matmul [ x; w ] in
        B.output b y;
        let g = B.finish b in
        check shape_eq "inferred" [ s; sd 2 ] (Tensor.shape y);
        check Alcotest.int "nodes" 1 (Graph.num_nodes g);
        check Alcotest.int "no lint errors" 0 (lint_errors g));
    Alcotest.test_case "builder rejects foreign tensors" `Quick (fun () ->
        let b = B.create "g" in
        let foreign = Tensor.create ~name:"foreign" [ sd 4 ] in
        Alcotest.check_raises "foreign"
          (Invalid_argument
             "Graph.Builder.add(neg): tensor foreign:[4] is not in graph g")
          (fun () -> ignore (B.add b Op.Neg [ foreign ])));
    Alcotest.test_case "builder rejects shape errors" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 3 ] in
        let y = B.input b "y" [ sd 4 ] in
        check Alcotest.bool "raises" true
          (try ignore (B.add b Op.Add [ x; y ]); false
           with Invalid_argument _ -> true));
    Alcotest.test_case "producer and consumers" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 4 ] in
        let y = B.add b Op.Neg [ x ] in
        let z = B.add b Op.Exp [ y ] in
        B.output b z;
        let g = B.finish b in
        check Alcotest.bool "input has no producer" true (Graph.producer g x = None);
        check Alcotest.bool "y produced by neg" true
          (match Graph.producer g y with
          | Some n -> Op.equal (Node.op n) Op.Neg
          | None -> false);
        check Alcotest.int "x consumed once" 1 (List.length (Graph.consumers g x));
        check Alcotest.bool "is_output" true (Graph.is_output g z));
    Alcotest.test_case "append_expr" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 4 ] in
        let y = B.add b Op.Neg [ x ] in
        B.output b y;
        let g = B.finish b in
        match Graph.append_expr g (Expr.app Op.Exp [ Expr.leaf y ]) with
        | Error e -> Alcotest.failf "append failed: %s" e
        | Ok (g', t) ->
            check Alcotest.int "one more node" 2 (Graph.num_nodes g');
            check Alcotest.bool "new output" true (Graph.is_output g' t);
            check Alcotest.int "no lint errors" 0 (lint_errors g'));
    Alcotest.test_case "append_expr rejects foreign leaves" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 4 ] in
        B.output b x;
        let g = B.finish b in
        let foreign = Tensor.create ~name:"zz" [ sd 4 ] in
        check Alcotest.bool "error" true
          (Result.is_error (Graph.append_expr g (Expr.leaf foreign))));
    Alcotest.test_case "with_outputs" `Quick (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 4 ] in
        let y = B.add b Op.Neg [ x ] in
        B.output b y;
        let g = B.finish b in
        (match Graph.with_outputs g [ x ] with
        | Ok g' -> check Alcotest.bool "outputs replaced" true (Graph.is_output g' x)
        | Error e -> Alcotest.fail e);
        check Alcotest.bool "foreign rejected" true
          (Result.is_error
             (Graph.with_outputs g [ Tensor.create ~name:"f" [ sd 1 ] ])));
    Alcotest.test_case
      "membership agrees with the lists after every constructor" `Quick
      (fun () ->
        let b = B.create "g" in
        let x = B.input b "x" [ sd 4 ] in
        let w = B.input b "w" [ sd 4 ] in
        let y = B.add b Op.Neg [ x ] in
        let z = B.add b Op.Add [ y; x ] in
        B.output b z;
        B.output b w;
        let built = B.finish b in
        let foreign = Tensor.create ~name:"f" [ sd 4 ] in
        let agrees what g =
          let mem l t = List.exists (Tensor.equal t) l in
          List.iter
            (fun t ->
              let name = Fmt.str "%s, %s" what (Tensor.name t) in
              check Alcotest.bool (name ^ ": is_input")
                (mem (Graph.inputs g) t) (Graph.is_input g t);
              check Alcotest.bool (name ^ ": is_output")
                (mem (Graph.outputs g) t) (Graph.is_output g t);
              check Alcotest.bool (name ^ ": mem_tensor")
                (mem (Graph.tensors g) t) (Graph.mem_tensor g t))
            (foreign :: Graph.tensors g)
        in
        let ok = function Ok g -> g | Error e -> Alcotest.fail e in
        agrees "Builder" built;
        agrees "unsafe_make"
          (Graph.unsafe_make ~name:"u" ~inputs:[ x ] ~outputs:[ y ]
             (List.filteri (fun i _ -> i = 0) (Graph.nodes built)));
        let appended =
          fst (ok (Graph.append_expr built (Expr.app Op.Exp [ Expr.leaf z ])))
        in
        agrees "append_expr" appended;
        agrees "with_outputs" (ok (Graph.with_outputs appended [ x; y ])));
  ]

(* --- expressions ----------------------------------------------------------- *)

let expr_tests =
  let a = Tensor.create ~name:"a" [ s; sd 4 ] in
  let b = Tensor.create ~name:"b" [ s; sd 4 ] in
  [
    Alcotest.test_case "size, depth, leaves" `Quick (fun () ->
        let e = Expr.app Op.Add [ Expr.leaf a; Expr.app Op.Neg [ Expr.leaf b ] ] in
        check Alcotest.int "size" 2 (Expr.size e);
        check Alcotest.int "depth" 2 (Expr.depth e);
        check Alcotest.int "leaves" 2 (List.length (Expr.leaves e));
        check Alcotest.bool "mem" true (Expr.mem_leaf a e));
    Alcotest.test_case "leaves dedup in order" `Quick (fun () ->
        let e = Expr.app Op.Add [ Expr.leaf a; Expr.leaf a ] in
        check Alcotest.int "dedup" 1 (List.length (Expr.leaves e)));
    Alcotest.test_case "clean predicate" `Quick (fun () ->
        let clean = Expr.app (Op.Concat { dim = 0 }) [ Expr.leaf a; Expr.leaf b ] in
        let dirty = Expr.app Op.Add [ Expr.leaf a; Expr.leaf b ] in
        check Alcotest.bool "concat clean" true (Expr.is_clean clean);
        check Alcotest.bool "add dirty" false (Expr.is_clean dirty);
        check Alcotest.bool "nested dirty" false
          (Expr.is_clean (Expr.app (Op.Concat { dim = 0 }) [ dirty; Expr.leaf b ])));
    Alcotest.test_case "subst" `Quick (fun () ->
        let e = Expr.app Op.Neg [ Expr.leaf a ] in
        let e' = Expr.subst (fun t -> if Tensor.equal t a then Some (Expr.leaf b) else None) e in
        check Alcotest.bool "substituted" true
          (Expr.equal e' (Expr.app Op.Neg [ Expr.leaf b ])));
    Alcotest.test_case "infer_shape" `Quick (fun () ->
        let e =
          Expr.app (Op.Concat { dim = 0 }) [ Expr.leaf a; Expr.leaf b ]
        in
        match Expr.infer_shape store e with
        | Ok sh -> check shape_eq "concat" [ Symdim.mul_int 2 s; sd 4 ] sh
        | Error err -> Alcotest.fail err);
    Alcotest.test_case "infer_shape propagates errors" `Quick (fun () ->
        let bad = Expr.app Op.Matmul [ Expr.leaf a; Expr.leaf b ] in
        check Alcotest.bool "error" true (Result.is_error (Expr.infer_shape store bad)));
  ]

(* [Expr.leaves] as a dedup against the list so far: the reference its
   linear version must agree with, leaf for leaf and in order. *)
let reference_leaves expr =
  let rec go acc = function
    | Expr.Leaf t -> if List.exists (Tensor.equal t) acc then acc else t :: acc
    | Expr.App (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] expr)

let leaf_pool =
  Array.init 80 (fun i -> Tensor.create ~name:(Fmt.str "t%d" i) [ sd 2 ])

(* Terms over the first [k] tensors of the pool: a small [k] repeats
   leaves, a large one gives wide sums of distinct leaves. *)
let gen_leafy_expr =
  let open QCheck.Gen in
  int_range 1 (Array.length leaf_pool) >>= fun k ->
  let leaf = map (fun i -> Expr.leaf leaf_pool.(i)) (int_bound (k - 1)) in
  let rec term depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 2,
            map (Expr.app Op.Sum_n)
              (list_size (int_range 1 30) (term (depth - 1))) );
        ]
  in
  term 2

(* The least wall time of five runs of [f] [reps] times. *)
let best_time reps f =
  List.fold_left min infinity
    (List.init 5 (fun _ ->
         let t0 = Unix.gettimeofday () in
         for _ = 1 to reps do
           ignore (Sys.opaque_identity (f ()))
         done;
         Unix.gettimeofday () -. t0))

let leaves_tests =
  let wide n =
    Expr.app
      (Op.Concat { dim = 0 })
      (List.init n (fun i ->
           Expr.leaf (Tensor.create ~name:(Fmt.str "w%d" i) [ sd 2 ])))
  in
  [
    qtest
      (QCheck.Test.make ~name:"leaves agree with the list-based dedup"
         ~count:500
         (QCheck.make ~print:Expr.to_string gen_leafy_expr)
         (fun e ->
           List.equal Tensor.equal (Expr.leaves e) (reference_leaves e)));
    Alcotest.test_case "leaves of a wide term cost linear time and allocation"
      `Quick (fun () ->
        (* A dedup against the list so far is quadratic in the distinct
           leaves: 4x the width took 14x the time. *)
        let leaves e () = Expr.leaves e in
        let large = wide 10_000 in
        let base = Test_serial.minor_words (leaves (wide 2_500)) in
        let words = Test_serial.minor_words (leaves large) in
        if words >= 5. *. base then
          Alcotest.failf "%.0f words, %.0f at a quarter the width" words base;
        (* Equal work per timed run, 500,000 leaves, so a preemption
           costs both sides alike: linear time reads ~1x plus cache
           effects, quadratic ~8x. *)
        let base = best_time 400 (leaves (wide 1_250)) in
        let secs = best_time 50 (leaves large) in
        if secs >= 3. *. base then
          Alcotest.failf "50 calls at 8x the width took %.4f s, 400 took %.4f s"
            secs base);
  ]

(* --- operator comparisons ------------------------------------------------ *)

(* The [Format]-based key [Op.key] used to build, kept as the reference
   its faster construction must reproduce byte for byte. *)
let reference_key (op : Op.t) =
  match op with
  | Scale r -> Fmt.str "scale(%a)" Rat.pp r
  | Concat { dim } -> Fmt.str "concat(%d)" dim
  | Hlo_concatenate { dim } -> Fmt.str "hlo_concatenate(%d)" dim
  | Slice { dim; start; stop } ->
      Fmt.str "slice(%d,%a,%a)" dim Symdim.pp start Symdim.pp stop
  | Hlo_slice { dim; start; stop } ->
      Fmt.str "hlo_slice(%d,%a,%a)" dim Symdim.pp start Symdim.pp stop
  | Transpose { dim0; dim1 } -> Fmt.str "transpose(%d,%d)" dim0 dim1
  | Reshape { shape } -> Fmt.str "reshape(%a)" Shape.pp shape
  | Pad { dim; before; after } ->
      Fmt.str "pad(%d,%a,%a)" dim Symdim.pp before Symdim.pp after
  | Reduce_sum { dim; keepdim } -> Fmt.str "reduce_sum(%d,%b)" dim keepdim
  | Reduce_mean { dim; keepdim } -> Fmt.str "reduce_mean(%d,%b)" dim keepdim
  | Reduce_max { dim; keepdim } -> Fmt.str "reduce_max(%d,%b)" dim keepdim
  | Softmax { dim } -> Fmt.str "softmax(%d)" dim
  | Layernorm { eps } -> Fmt.str "layernorm(%h)" eps
  | Rmsnorm { eps } -> Fmt.str "rmsnorm(%h)" eps
  | Reduce_scatter { dim; index; count } ->
      Fmt.str "reduce_scatter(%d,%d,%d)" dim index count
  | All_gather { dim } -> Fmt.str "all_gather(%d)" dim
  | _ -> Op.name op

(* Small pools, so two draws often coincide. The symbols include one
   named like an integer and one holding the key's separator. *)
let gen_int = QCheck.Gen.int_range (-3) 3

let gen_symdim =
  QCheck.Gen.oneofl
    [
      sd 0; sd 1; sd (-1); sd 2; sd 12; s; Symdim.sym "2"; Symdim.sym "a,b";
      Symdim.add s (sd 1); Symdim.sub (Symdim.mul_int 2 s) (sd 1);
      Symdim.neg s;
    ]

let gen_rat =
  QCheck.Gen.(
    map2 (fun n d -> Rat.make n d) gen_int
      (oneofl [ 1; 2; 3; -2; -1 ]))

let gen_eps =
  QCheck.Gen.oneofl [ 0.; -0.; 1e-5; 1e-6; -1e-5; Float.nan; Float.infinity ]

(* Every constructor, in declaration order, with random attributes. *)
let gen_constructor k =
  let open QCheck.Gen in
  let dim f = map f gen_int in
  let slice f = map3 f gen_int gen_symdim gen_symdim in
  let reduce f = map2 f gen_int bool in
  match k with
  | 0 -> return Op.Add | 1 -> return Op.Sub | 2 -> return Op.Mul
  | 3 -> return Op.Div | 4 -> return Op.Maximum | 5 -> return Op.Pow
  | 6 -> return Op.Neg | 7 -> return Op.Exp | 8 -> return Op.Log
  | 9 -> return Op.Sqrt | 10 -> return Op.Rsqrt | 11 -> return Op.Relu
  | 12 -> return Op.Gelu | 13 -> return Op.Silu | 14 -> return Op.Tanh
  | 15 -> return Op.Sigmoid | 16 -> return Op.Square
  | 17 -> map (fun r -> Op.Scale r) gen_rat
  | 18 -> return Op.Matmul | 19 -> return Op.Identity
  | 20 -> dim (fun dim -> Op.Concat { dim })
  | 21 -> slice (fun dim start stop -> Op.Slice { dim; start; stop })
  | 22 -> map2 (fun dim0 dim1 -> Op.Transpose { dim0; dim1 }) gen_int gen_int
  | 23 ->
      map
        (fun shape -> Op.Reshape { shape })
        (list_size (int_range 0 3) gen_symdim)
  | 24 -> slice (fun dim before after -> Op.Pad { dim; before; after })
  | 25 -> return Op.Sum_n
  | 26 -> reduce (fun dim keepdim -> Op.Reduce_sum { dim; keepdim })
  | 27 -> reduce (fun dim keepdim -> Op.Reduce_mean { dim; keepdim })
  | 28 -> reduce (fun dim keepdim -> Op.Reduce_max { dim; keepdim })
  | 29 -> dim (fun dim -> Op.Softmax { dim })
  | 30 -> map (fun eps -> Op.Layernorm { eps }) gen_eps
  | 31 -> map (fun eps -> Op.Rmsnorm { eps }) gen_eps
  | 32 -> return Op.Embedding | 33 -> return Op.Rope
  | 34 -> return Op.Mse_loss | 35 -> return Op.Cross_entropy
  | 36 -> return Op.All_reduce
  | 37 ->
      map3 (fun dim index count -> Op.Reduce_scatter { dim; index; count })
        gen_int gen_int gen_int
  | 38 -> dim (fun dim -> Op.All_gather { dim })
  | 39 -> return Op.Swiglu_fused | 40 -> return Op.Hlo_dot
  | 41 -> slice (fun dim start stop -> Op.Hlo_slice { dim; start; stop })
  | _ -> dim (fun dim -> Op.Hlo_concatenate { dim })

let constructors = 43

(* Mostly two operators of one constructor, where the attributes
   decide, and now and then two of any. *)
let gen_op_pair =
  let open QCheck.Gen in
  let any = int_range 0 (constructors - 1) in
  any >>= fun k ->
  frequency [ (4, return k); (1, any) ] >>= fun k' ->
  pair (gen_constructor k) (gen_constructor k')

let op_comparison_tests =
  [
    qtest
      (QCheck.Test.make ~name:"op comparisons match the Format-based key"
         ~count:3000
         (QCheck.make
            ~print:(fun (a, b) -> reference_key a ^ " vs " ^ reference_key b)
            gen_op_pair)
         (fun (a, b) ->
           let ka = reference_key a and kb = reference_key b in
           String.equal (Op.key a) ka
           && String.equal (Op.key b) kb
           && Bool.equal (Op.equal a b) (String.equal ka kb)
           && Int.equal
                (Int.compare (Op.compare a b) 0)
                (Int.compare (String.compare ka kb) 0)
           && Int.equal (Op.hash a) (Hashtbl.hash ka)));
    Alcotest.test_case "every constructor is generated" `Quick (fun () ->
        let names =
          List.init constructors (fun k ->
              Op.name (QCheck.Gen.generate1 (gen_constructor k)))
        in
        check Alcotest.int "distinct names" constructors
          (List.length (List.sort_uniq String.compare names)));
  ]

let suite =
  [
    ("ir.dtype", dtype_tests);
    ("ir.shape", shape_tests);
    ("ir.op-shape", op_shape_tests);
    ("ir.op-axis", axis_tests);
    ("ir.op-identity", op_identity_tests);
    ("ir.op-compare", op_comparison_tests);
    ("ir.graph", graph_tests);
    ("ir.expr", expr_tests);
    ("ir.expr-leaves", leaves_tests);
  ]
