(* Tests for the dense tensor interpreter: hand-computed values plus
   algebraic property tests that mirror the lemma corpus (the lemmas are
   separately validated against this interpreter, so its own correctness
   is load-bearing). *)

open Entangle_ir

(* The per-element kernels [Ndarray] ran before its strided, fused
   rewrite, kept as the reference it is held to bit for bit: every
   output element must come from the same IEEE operations in the same
   order. They index one element at a time through closures and index
   arrays, which makes them slow and obviously right. *)
module Ref = struct
  type t = { dims : int array; data : float array }

  let of_nd a =
    {
      dims = Array.of_list (Ndarray.dims a);
      data = Array.of_list (Ndarray.to_flat_list a);
    }

  let to_nd r = Ndarray.of_list (Array.to_list r.dims) (Array.to_list r.data)
  let numel_of dims = Array.fold_left ( * ) 1 dims

  let strides_of dims =
    let n = Array.length dims in
    let s = Array.make n 1 in
    for i = n - 2 downto 0 do
      s.(i) <- s.(i + 1) * dims.(i + 1)
    done;
    s

  let create dims fill =
    let dims = Array.of_list dims in
    { dims; data = Array.make (numel_of dims) fill }

  let rank t = Array.length t.dims

  let iter_indices dims f =
    let n = Array.length dims in
    if numel_of dims > 0 then begin
      let idx = Array.make n 0 in
      let rec bump i =
        if i >= 0 then begin
          idx.(i) <- idx.(i) + 1;
          if idx.(i) = dims.(i) then begin
            idx.(i) <- 0;
            bump (i - 1)
          end
        end
      in
      let total = numel_of dims in
      for off = 0 to total - 1 do
        f off idx;
        bump (n - 1)
      done
    end

  let random st dims =
    let t = create dims 0. in
    Array.iteri
      (fun i _ -> t.data.(i) <- Random.State.float st 2.0 -. 1.0)
      t.data;
    t

  let random_ints st ~hi dims =
    let t = create dims 0. in
    Array.iteri
      (fun i _ -> t.data.(i) <- float_of_int (Random.State.int st hi))
      t.data;
    t

  let map f t = { t with data = Array.map f t.data }

  let broadcast_dims a b =
    let ra = Array.length a and rb = Array.length b in
    let n = max ra rb in
    let da i = if i < n - ra then 1 else a.(i - (n - ra)) in
    let db i = if i < n - rb then 1 else b.(i - (n - rb)) in
    Array.init n (fun i ->
        let x = da i and y = db i in
        if x = y then x
        else if x = 1 then y
        else if y = 1 then x
        else invalid_arg "Ndarray: broadcast mismatch")

  let bcast_strides t n =
    let r = Array.length t.dims in
    let s = strides_of t.dims in
    Array.init n (fun i ->
        let j = i - (n - r) in
        if j < 0 || t.dims.(j) = 1 then 0 else s.(j))

  let same_dims a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let map2 f a b =
    let dims = broadcast_dims a.dims b.dims in
    let out = { dims; data = Array.make (numel_of dims) 0. } in
    if same_dims a.dims dims && same_dims b.dims dims then
      for off = 0 to Array.length out.data - 1 do
        out.data.(off) <- f a.data.(off) b.data.(off)
      done
    else begin
      let n = Array.length dims in
      let sa = bcast_strides a n and sb = bcast_strides b n in
      iter_indices dims (fun off idx ->
          let oa = ref 0 and ob = ref 0 in
          for i = 0 to n - 1 do
            oa := !oa + (sa.(i) * idx.(i));
            ob := !ob + (sb.(i) * idx.(i))
          done;
          out.data.(off) <- f a.data.(!oa) b.data.(!ob))
    end;
    out

  let add = map2 ( +. )
  let sub = map2 ( -. )
  let mul = map2 ( *. )
  let div = map2 ( /. )
  let scale k t = map (fun x -> k *. x) t

  let sum_list = function
    | [] -> invalid_arg "Ndarray.sum_list: empty"
    | x :: rest -> List.fold_left add x rest

  let matmul2 a b ~ad ~bd ~aoff ~boff out ~ooff =
    let m = ad.(0) and k = ad.(1) and n = bd.(1) in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0. in
        for l = 0 to k - 1 do
          acc := !acc +. (a.(aoff + (i * k) + l) *. b.(boff + (l * n) + j))
        done;
        out.(ooff + (i * n) + j) <- !acc
      done
    done

  let matmul a b =
    let ra = rank a and rb = rank b in
    if ra < 2 || rb < 2 then invalid_arg "Ndarray.matmul: rank";
    let m = a.dims.(ra - 2) and k = a.dims.(ra - 1) in
    let kb = b.dims.(rb - 2) and n = b.dims.(rb - 1) in
    if k <> kb then invalid_arg "Ndarray.matmul: inner dims";
    let batch_a = Array.sub a.dims 0 (ra - 2) in
    let batch_b = Array.sub b.dims 0 (rb - 2) in
    let batch =
      if rb = 2 then batch_a
      else if batch_a = batch_b then batch_a
      else invalid_arg "Ndarray.matmul: batch dims"
    in
    let nb = numel_of batch in
    let dims = Array.append batch [| m; n |] in
    let out = { dims; data = Array.make (numel_of dims) 0. } in
    let astep = m * k and bstep = if rb = 2 then 0 else k * n in
    let ostep = m * n in
    for i = 0 to nb - 1 do
      matmul2 a.data b.data ~ad:[| m; k |] ~bd:[| k; n |] ~aoff:(i * astep)
        ~boff:(i * bstep) out.data ~ooff:(i * ostep)
    done;
    out

  let norm_axis t dim =
    let r = rank t in
    let d = if dim < 0 then r + dim else dim in
    if d < 0 || d >= r then invalid_arg "Ndarray: axis out of range";
    d

  let concat ~dim = function
    | [] -> invalid_arg "Ndarray.concat: empty"
    | first :: _ as ts ->
        let d = norm_axis first dim in
        let total = List.fold_left (fun acc t -> acc + t.dims.(d)) 0 ts in
        let dims = Array.copy first.dims in
        dims.(d) <- total;
        let out = { dims; data = Array.make (numel_of dims) 0. } in
        let offset = ref 0 in
        List.iter
          (fun t ->
            iter_indices t.dims (fun off idx ->
                let tgt = Array.copy idx in
                tgt.(d) <- tgt.(d) + !offset;
                let s = strides_of dims in
                let o = ref 0 in
                Array.iteri (fun i j -> o := !o + (s.(i) * j)) tgt;
                out.data.(!o) <- t.data.(off));
            offset := !offset + t.dims.(d))
          ts;
        out

  let slice ~dim ~start ~stop t =
    let d = norm_axis t dim in
    if start < 0 || stop > t.dims.(d) || start > stop then
      invalid_arg "Ndarray.slice: bounds";
    let dims = Array.copy t.dims in
    dims.(d) <- stop - start;
    let out = { dims; data = Array.make (numel_of dims) 0. } in
    let s = strides_of t.dims in
    iter_indices dims (fun off idx ->
        let o = ref 0 in
        Array.iteri
          (fun i j -> o := !o + (s.(i) * if i = d then j + start else j))
          idx;
        out.data.(off) <- t.data.(!o));
    out

  let transpose ~dim0 ~dim1 t =
    let d0 = norm_axis t dim0 and d1 = norm_axis t dim1 in
    let dims = Array.copy t.dims in
    dims.(d0) <- t.dims.(d1);
    dims.(d1) <- t.dims.(d0);
    let out = { dims; data = Array.make (numel_of dims) 0. } in
    let s = strides_of t.dims in
    iter_indices dims (fun off idx ->
        let swapped = Array.copy idx in
        swapped.(d0) <- idx.(d1);
        swapped.(d1) <- idx.(d0);
        let o = ref 0 in
        Array.iteri (fun i j -> o := !o + (s.(i) * j)) swapped;
        out.data.(off) <- t.data.(!o));
    out

  let pad ~dim ~before ~after t =
    let d = norm_axis t dim in
    let dims = Array.copy t.dims in
    dims.(d) <- t.dims.(d) + before + after;
    let out = { dims; data = Array.make (numel_of dims) 0. } in
    let s = strides_of dims in
    iter_indices t.dims (fun off idx ->
        let o = ref 0 in
        Array.iteri
          (fun i j -> o := !o + (s.(i) * if i = d then j + before else j))
          idx;
        out.data.(!o) <- t.data.(off));
    out

  let reduce_with ~init ~f ~post ~dim ~keepdim t =
    let d = norm_axis t dim in
    let out_dims = Array.copy t.dims in
    out_dims.(d) <- 1;
    let out = { dims = out_dims; data = Array.make (numel_of out_dims) init } in
    let counts = Array.make (numel_of out_dims) 0 in
    let s = strides_of out_dims in
    iter_indices t.dims (fun off idx ->
        let o = ref 0 in
        Array.iteri (fun i j -> o := !o + (s.(i) * if i = d then 0 else j)) idx;
        out.data.(!o) <- f out.data.(!o) t.data.(off);
        counts.(!o) <- counts.(!o) + 1);
    Array.iteri (fun i v -> out.data.(i) <- post v counts.(i)) out.data;
    if keepdim then out
    else
      let dims =
        Array.of_list
          (List.filteri (fun i _ -> i <> d) (Array.to_list t.dims))
      in
      { dims; data = out.data }

  let reduce_sum ~dim ~keepdim t =
    reduce_with ~init:0. ~f:( +. ) ~post:(fun v _ -> v) ~dim ~keepdim t

  let reduce_mean ~dim ~keepdim t =
    reduce_with ~init:0. ~f:( +. )
      ~post:(fun v c -> v /. float_of_int (max 1 c))
      ~dim ~keepdim t

  let reduce_max ~dim ~keepdim t =
    reduce_with ~init:neg_infinity ~f:max ~post:(fun v _ -> v) ~dim ~keepdim t

  let softmax ~dim t =
    let m = reduce_max ~dim ~keepdim:true t in
    let e = map exp (sub t m) in
    let z = reduce_sum ~dim ~keepdim:true e in
    div e z

  let layernorm ~eps x w b =
    let mean = reduce_mean ~dim:(-1) ~keepdim:true x in
    let centered = sub x mean in
    let var = reduce_mean ~dim:(-1) ~keepdim:true (mul centered centered) in
    let inv = map (fun v -> 1. /. sqrt (v +. eps)) var in
    add (mul (mul centered inv) w) b

  let rmsnorm ~eps x w =
    let ms = reduce_mean ~dim:(-1) ~keepdim:true (mul x x) in
    let inv = map (fun v -> 1. /. sqrt (v +. eps)) ms in
    mul (mul x inv) w

  let rope x cos sin =
    let r = rank x in
    let d = x.dims.(r - 1) in
    if d mod 2 <> 0 then invalid_arg "Ndarray.rope: odd last dim";
    let h = d / 2 in
    let lo = slice ~dim:(r - 1) ~start:0 ~stop:h x in
    let hi = slice ~dim:(r - 1) ~start:h ~stop:d x in
    let rot = concat ~dim:(r - 1) [ map (fun v -> -.v) hi; lo ] in
    add (mul x cos) (mul rot sin)

  let silu t = map (fun x -> x /. (1. +. exp (-.x))) t

  let gelu t =
    let c = sqrt (2. /. Float.pi) in
    map
      (fun x -> 0.5 *. x *. (1. +. tanh (c *. (x +. (0.044715 *. x *. x *. x)))))
      t

  let max_abs_diff a b =
    if a.dims <> b.dims then infinity
    else begin
      let m = ref 0. in
      Array.iteri (fun i x -> m := max !m (abs_float (x -. b.data.(i)))) a.data;
      !m
    end

  (* [Interp.eval_op] over the reference kernels; kernels the rewrite
     left alone run as [Ndarray]'s own. A reduce-scatter sums whole
     inputs and keeps chunk [index], its axis resolved as shape
     inference resolves it. *)
  let eval_op env (op : Op.t) args =
    let dim_value d =
      Entangle_symbolic.Symdim.eval (Interp.lookup env) d
    in
    let nd f = of_nd (f (List.map to_nd args)) in
    let one f = match args with [ a ] -> f a | _ -> invalid_arg "arity" in
    let two f = match args with [ a; b ] -> f a b | _ -> invalid_arg "arity" in
    let three f =
      match args with [ a; b; c ] -> f a b c | _ -> invalid_arg "arity"
    in
    match op with
    | Add -> two add
    | Sub -> two sub
    | Mul -> two mul
    | Div -> two div
    | Maximum -> two (map2 max)
    | Pow -> two (map2 ( ** ))
    | Scale r -> one (scale (Entangle_symbolic.Rat.to_float r))
    | Gelu -> one gelu
    | Silu -> one silu
    | Concat { dim } | Hlo_concatenate { dim } | All_gather { dim } ->
        concat ~dim args
    | Slice { dim; start; stop } | Hlo_slice { dim; start; stop } ->
        one (slice ~dim ~start:(dim_value start) ~stop:(dim_value stop))
    | Transpose { dim0; dim1 } -> one (transpose ~dim0 ~dim1)
    | Pad { dim; before; after } ->
        one (pad ~dim ~before:(dim_value before) ~after:(dim_value after))
    | Sum_n | All_reduce -> sum_list args
    | Reduce_scatter { dim; index; count } ->
        let s = sum_list args in
        let dim = Shape.normalize_axis ~rank:(rank s) dim in
        let chunk = s.dims.(dim) / count in
        slice ~dim ~start:(index * chunk) ~stop:((index + 1) * chunk) s
    | Reduce_sum { dim; keepdim } -> one (reduce_sum ~dim ~keepdim)
    | Reduce_mean { dim; keepdim } -> one (reduce_mean ~dim ~keepdim)
    | Reduce_max { dim; keepdim } -> one (reduce_max ~dim ~keepdim)
    | Softmax { dim } -> one (softmax ~dim)
    | Layernorm { eps } -> three (layernorm ~eps)
    | Rmsnorm { eps } -> two (rmsnorm ~eps)
    | Rope -> three rope
    | Swiglu_fused -> two (fun g u -> mul (silu g) u)
    | Matmul | Hlo_dot -> two matmul
    | Neg | Exp | Log | Sqrt | Rsqrt | Relu | Tanh | Sigmoid | Square
    | Identity | Reshape _ | Embedding | Mse_loss | Cross_entropy ->
        nd (Interp.eval_op env op)
end

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
    Alcotest.test_case "a norm refuses a weight that is not a last-dim vector"
      `Quick (fun () ->
        let x = Ndarray.create [ 2; 3 ] 1. in
        let v = Ndarray.create [ 3 ] 1. and m = Ndarray.create [ 1; 3 ] 1. in
        Alcotest.check_raises "layernorm weight"
          (Invalid_argument "Ndarray.layernorm: weight") (fun () ->
            ignore (Ndarray.layernorm ~eps:1e-5 x m v));
        Alcotest.check_raises "layernorm bias"
          (Invalid_argument "Ndarray.layernorm: bias") (fun () ->
            ignore (Ndarray.layernorm ~eps:1e-5 x v m));
        Alcotest.check_raises "rmsnorm weight"
          (Invalid_argument "Ndarray.rmsnorm: weight") (fun () ->
            ignore (Ndarray.rmsnorm ~eps:1e-5 x m)));
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
let gen_broadcast ?(min_dim = 1) () =
  let open QCheck.Gen in
  list_size (int_range 0 4) (int_range min_dim 3) >>= fun dims ->
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
            (gen_broadcast ()))
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

(* --- the kernels against their per-element reference ------------------- *)

(* Mostly uniform in [-2, 2), sometimes an IEEE edge value, so signed
   zeros, infinities and NaN payloads are compared too. *)
let gen_value =
  QCheck.Gen.(
    frequency
      [
        (12, float_range (-2.) 2.);
        (1, oneofl [ 0.; -0.; infinity; neg_infinity; nan; 1e300; -1e-300 ]);
      ])

let gen_array dims =
  QCheck.Gen.map
    (Ndarray.of_list dims)
    (QCheck.Gen.list_repeat (List.fold_left ( * ) 1 dims) gen_value)

(* Shapes of rank [min_rank]..4 whose dims include 0 and 1. *)
let gen_shape ?(min_rank = 0) () =
  QCheck.Gen.(int_range min_rank 4 >>= fun r -> list_repeat r (int_range 0 3))

let gen_axis rank = QCheck.Gen.int_range (-rank) (rank - 1)

let print_arrays arrays =
  String.concat "\n" (List.map (Fmt.str "%a" Ndarray.pp) arrays)

(* A reference result and a kernel result agree in dims and in every
   element's bits. *)
let same_as (r : Ref.t) a =
  Ndarray.dims a = Array.to_list r.dims
  && List.equal same_bits (Array.to_list r.data) (Ndarray.to_flat_list a)

(* [reference] and [kernel] agree on [args]. *)
let agree reference kernel args =
  same_as (reference (List.map Ref.of_nd args)) (kernel args)

(* A property over a generated case, printed with its arrays. *)
let kernel_case name ?(count = 300) gen print prop =
  qtest (QCheck.Test.make ~name ~count (QCheck.make ~print gen) prop)

let with_axis gen_rank_min =
  QCheck.Gen.(
    gen_shape ~min_rank:gen_rank_min () >>= fun dims ->
    gen_axis (List.length dims) >>= fun axis ->
    gen_array dims >|= fun x -> (axis, x))

let print_axis (axis, x) = Fmt.str "axis %d\n%s" axis (print_arrays [ x ])

(* Broadcasting operands, size-0 dims among them. *)
let gen_broadcast_arrays =
  QCheck.Gen.(
    gen_broadcast ~min_dim:0 () >>= fun (da, db) ->
    pair (gen_array da) (gen_array db))

let print_pair (a, b) = print_arrays [ a; b ]

let binary reference kernel (a, b) =
  agree (function [ x; y ] -> reference x y | _ -> assert false)
    (function [ x; y ] -> kernel x y | _ -> assert false)
    [ a; b ]

let unary reference kernel x =
  agree (function [ x ] -> reference x | _ -> assert false)
    (function [ x ] -> kernel x | _ -> assert false)
    [ x ]

let ternary reference kernel (a, b, c) =
  agree (function [ x; y; z ] -> reference x y z | _ -> assert false)
    (function [ x; y; z ] -> kernel x y z | _ -> assert false)
    [ a; b; c ]

(* A norm's weight: a vector as long as the last dimension, the only
   shape inference admits. *)
let gen_weight dims =
  let n = match List.rev dims with n :: _ -> n | [] -> 1 in
  gen_array [ n ]

let reference_tests =
  let max_ x y = if x >= y then x else y in
  [
    kernel_case "add, sub, mul, div and map2 match the reference"
      gen_broadcast_arrays print_pair (fun ab ->
        binary Ref.add Ndarray.add ab
        && binary Ref.sub Ndarray.sub ab
        && binary Ref.mul Ndarray.mul ab
        && binary Ref.div Ndarray.div ab
        && binary (Ref.map2 max_) (Ndarray.map2 max_) ab
        && binary (Ref.map2 ( ** )) (Ndarray.map2 ( ** )) ab);
    kernel_case "scale, gelu and silu match the reference"
      QCheck.Gen.(pair gen_value (gen_shape () >>= gen_array))
      (fun (k, x) -> Fmt.str "k %h\n%s" k (print_arrays [ x ]))
      (fun (k, x) ->
        unary (Ref.scale k) (Ndarray.scale k) x
        && unary Ref.gelu Ndarray.gelu x
        && unary Ref.silu Ndarray.silu x);
    kernel_case "sum_list matches the reference"
      QCheck.Gen.(
        oneof
          [
            ( gen_shape () >>= fun dims ->
              int_range 1 4 >>= fun k -> list_repeat k (gen_array dims) );
            map (fun (a, b) -> [ a; b ]) gen_broadcast_arrays;
          ])
      print_arrays
      (agree Ref.sum_list Ndarray.sum_list);
    kernel_case "concat matches the reference"
      QCheck.Gen.(
        gen_shape ~min_rank:1 () >>= fun dims ->
        gen_axis (List.length dims) >>= fun axis ->
        let d = if axis < 0 then List.length dims + axis else axis in
        int_range 1 3 >>= fun k ->
        list_repeat k
          (int_range 0 3 >>= fun n ->
           gen_array (List.mapi (fun i m -> if i = d then n else m) dims))
        >|= fun parts -> (axis, parts))
      (fun (axis, parts) -> Fmt.str "axis %d\n%s" axis (print_arrays parts))
      (fun (axis, parts) ->
        agree (Ref.concat ~dim:axis) (Ndarray.concat ~dim:axis) parts);
    kernel_case "slice and pad match the reference"
      QCheck.Gen.(
        with_axis 1 >>= fun (axis, x) ->
        let d = if axis < 0 then Ndarray.rank x + axis else axis in
        let n = List.nth (Ndarray.dims x) d in
        int_range 0 n >>= fun start ->
        int_range start n >>= fun stop ->
        pair (int_range 0 2) (int_range 0 2) >|= fun (before, after) ->
        (axis, x, start, stop, before, after))
      (fun (axis, x, start, stop, before, after) ->
        Fmt.str "axis %d [%d, %d) pad %d %d\n%s" axis start stop before after
          (print_arrays [ x ]))
      (fun (axis, x, start, stop, before, after) ->
        unary
          (Ref.slice ~dim:axis ~start ~stop)
          (Ndarray.slice ~dim:axis ~start ~stop)
          x
        && unary
             (Ref.pad ~dim:axis ~before ~after)
             (Ndarray.pad ~dim:axis ~before ~after)
             x);
    kernel_case "transpose matches the reference"
      QCheck.Gen.(
        with_axis 1 >>= fun (dim0, x) ->
        gen_axis (Ndarray.rank x) >|= fun dim1 -> (dim0, dim1, x))
      (fun (dim0, dim1, x) ->
        Fmt.str "dims %d %d\n%s" dim0 dim1 (print_arrays [ x ]))
      (fun (dim0, dim1, x) ->
        unary (Ref.transpose ~dim0 ~dim1) (Ndarray.transpose ~dim0 ~dim1) x);
    kernel_case "reductions and softmax match the reference"
      QCheck.Gen.(pair (with_axis 1) bool)
      (fun (ax, keepdim) -> Fmt.str "keepdim %b\n%s" keepdim (print_axis ax))
      (fun ((dim, x), keepdim) ->
        let reduced reference kernel =
          unary (reference ~dim ~keepdim) (kernel ~dim ~keepdim) x
        in
        reduced Ref.reduce_sum Ndarray.reduce_sum
        && reduced Ref.reduce_mean Ndarray.reduce_mean
        && reduced Ref.reduce_max Ndarray.reduce_max
        && unary (Ref.softmax ~dim) (Ndarray.softmax ~dim) x);
    kernel_case "layernorm and rmsnorm match the reference"
      QCheck.Gen.(
        gen_shape ~min_rank:1 () >>= fun dims ->
        triple (gen_array dims) (gen_weight dims) (gen_weight dims))
      (fun (x, w, b) -> print_arrays [ x; w; b ])
      (fun (x, w, b) ->
        let eps = 1e-5 in
        ternary (Ref.layernorm ~eps) (Ndarray.layernorm ~eps) (x, w, b)
        && binary (Ref.rmsnorm ~eps) (Ndarray.rmsnorm ~eps) (x, w));
    kernel_case "rope matches the reference, fused or composed"
      QCheck.Gen.(
        gen_shape ~min_rank:1 () >>= fun dims ->
        int_range 0 2 >>= fun half ->
        let dims = List.rev (2 * half :: List.tl (List.rev dims)) in
        let table =
          oneofl [ dims; dims; [ 2 * half ]; [ 1; 2 * half ] ] >>= gen_array
        in
        triple (gen_array dims) table table)
      (fun (x, c, s) -> print_arrays [ x; c; s ])
      (ternary Ref.rope Ndarray.rope);
    kernel_case "max_abs_diff matches the reference"
      QCheck.Gen.(
        gen_shape () >>= fun dims ->
        pair (gen_array dims)
          (oneof [ gen_array dims; gen_shape () >>= gen_array ]))
      print_pair
      (fun (a, b) ->
        same_bits
          (Ref.max_abs_diff (Ref.of_nd a) (Ref.of_nd b))
          (Ndarray.max_abs_diff a b));
    kernel_case "matmul matches the reference, batched or not"
      QCheck.Gen.(
        list_size (int_range 0 2) (int_range 0 3) >>= fun batch ->
        int_range 0 3 >>= fun m ->
        int_range 0 3 >>= fun k ->
        int_range 0 3 >>= fun n ->
        bool >>= fun shared ->
        pair
          (gen_array (batch @ [ m; k ]))
          (gen_array ((if shared then [] else batch) @ [ k; n ])))
      print_pair (binary Ref.matmul Ndarray.matmul);
    kernel_case "random and random_ints draw the reference's values"
      QCheck.Gen.(pair (gen_shape ()) (int_range 1 9))
      (fun (dims, hi) -> Fmt.str "%a hi %d" Fmt.(Dump.list int) dims hi)
      (fun (dims, hi) ->
        let st () = Random.State.make [| 42 |] in
        same_as (Ref.random (st ()) dims) (Ndarray.random (st ()) dims)
        && same_as
             (Ref.random_ints (st ()) ~hi dims)
             (Ndarray.random_ints (st ()) ~hi dims));
    kernel_case "reduce_scatter slices then sums as the reference sums, slices"
      QCheck.Gen.(
        gen_shape ~min_rank:1 () >>= fun dims ->
        gen_axis (List.length dims) >>= fun dim ->
        let d = if dim < 0 then List.length dims + dim else dim in
        int_range 1 3 >>= fun count ->
        int_range 0 2 >>= fun chunk ->
        int_range 0 (count - 1) >>= fun index ->
        let dims =
          List.mapi (fun i m -> if i = d then count * chunk else m) dims
        in
        int_range 1 3 >>= fun k ->
        list_repeat k (gen_array dims) >|= fun args ->
        (Op.Reduce_scatter { dim; index; count }, args))
      (fun (op, args) -> Fmt.str "%a\n%s" Op.pp op (print_arrays args))
      (fun (op, args) ->
        let env = Interp.env_of_list [] in
        agree (Ref.eval_op env op) (Interp.eval_op env op) args);
  ]

(* Every node output of the 17 cold-search zoo entries and the nine
   bugs, in both graphs, on the inputs of two seeds, equals the
   reference interpreter's value for the same operator on the same
   inputs. *)
let zoo_tests =
  [
    Alcotest.test_case "every zoo and bug node output matches the reference"
      `Slow (fun () ->
        let instances =
          List.map (fun (z : Perfbench.Plan.zoo) -> z.build ()) Perfbench.Plan.zoo
          @ List.map (fun (c : Entangle_models.Bugs.case) -> c.instance)
              (Entangle_models.Bugs.all ())
        in
        let compared = ref 0 in
        List.iter
          (fun (inst : Entangle_models.Instance.t) ->
            List.iter
              (fun (g, seed) ->
                let env = inst.env in
                let st = Random.State.make [| seed |] in
                let values =
                  Interp.run env g ~inputs:(Interp.random_inputs st env g)
                in
                List.iter
                  (fun node ->
                    let args =
                      List.map (fun t -> Tensor.Map.find t values) (Node.inputs node)
                    in
                    let got = Tensor.Map.find (Node.output node) values in
                    incr compared;
                    if not (agree (Ref.eval_op env (Node.op node)) (fun _ -> got) args)
                    then
                      Alcotest.failf "%s, graph %s: %a differs from the reference"
                        inst.name (Graph.name g) Op.pp (Node.op node))
                  (Graph.nodes g))
              [ (inst.gs, 42); (inst.gd, 42); (inst.gs, 7); (inst.gd, 7) ])
          instances;
        check Alcotest.int "node outputs compared, two seeds" 7_914 !compared);
  ]

let suite =
  [
    ("ndarray.basic", basic_tests);
    ("ndarray.properties", property_tests);
    ("ndarray.reference", reference_tests);
    ("ndarray.zoo", zoo_tests);
  ]
