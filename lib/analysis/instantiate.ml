open Entangle_symbolic
open Entangle_ir
open Entangle_egraph
open Entangle_lemmas

type assignment = {
  ops : (string * Op.t) list;
  tensors : (string * Tensor.t) list;
}

let ( let* ) = Result.bind

let rec infer = function
  | Expr.Leaf t -> Ok (Tensor.shape t, Tensor.dtype t)
  | Expr.App (op, args) ->
      let* children =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* sd = infer e in
            Ok (sd :: acc))
          (Ok []) args
      in
      let children = List.rev children in
      let* shape =
        Op.infer_shape Constraint_store.empty op (List.map fst children)
      in
      let* dtype = Op.infer_dtype op (List.map snd children) in
      Ok (shape, dtype)

(* --- sampling ---------------------------------------------------------- *)

let pick st l = List.nth l (Random.State.int st (List.length l))

(* Shapes skew towards [4; 4]: square and evenly divisible, so matmul
   contractions, concat/slice splits and reshape products line up often
   enough for rejection sampling to converge quickly. *)
let sample_shape st =
  pick st
    [
      [ 4; 4 ]; [ 4; 4 ]; [ 4; 4 ]; [ 4; 4 ]; [ 4; 4 ]; [ 4; 4 ];
      [ 2; 4 ]; [ 2; 4 ]; [ 4; 2 ]; [ 4; 2 ]; [ 4 ]; [ 4 ]; [ 8 ]; [ 2; 2 ];
    ]

let sample_dim st = Random.State.int st 2

let sample_op st family =
  let dim = sample_dim st in
  match family with
  | "add" -> Some Op.Add
  | "sub" -> Some Op.Sub
  | "mul" -> Some Op.Mul
  | "div" -> Some Op.Div
  | "maximum" -> Some Op.Maximum
  | "pow" -> Some Op.Pow
  | "neg" -> Some Op.Neg
  | "exp" -> Some Op.Exp
  | "log" -> Some Op.Log
  | "sqrt" -> Some Op.Sqrt
  | "rsqrt" -> Some Op.Rsqrt
  | "relu" -> Some Op.Relu
  | "gelu" -> Some Op.Gelu
  | "silu" -> Some Op.Silu
  | "tanh" -> Some Op.Tanh
  | "sigmoid" -> Some Op.Sigmoid
  | "square" -> Some Op.Square
  | "scale" ->
      let num = pick st [ -2; -1; 1; 2; 3 ] and den = pick st [ 1; 2; 4 ] in
      Some (Op.Scale (Rat.make num den))
  | "matmul" -> Some Op.Matmul
  | "identity" -> Some Op.Identity
  | "concat" -> Some (Op.Concat { dim })
  | "hlo_concatenate" -> Some (Op.Hlo_concatenate { dim })
  | "slice" | "hlo_slice" ->
      let start = Random.State.int st 3 in
      let stop = start + 1 + Random.State.int st (4 - start) in
      let start = Symdim.of_int start and stop = Symdim.of_int stop in
      if family = "slice" then Some (Op.Slice { dim; start; stop })
      else Some (Op.Hlo_slice { dim; start; stop })
  | "transpose" -> Some (Op.Transpose { dim0 = 0; dim1 = 1 })
  | "reshape" ->
      let shape =
        pick st [ [ 16 ]; [ 4; 4 ]; [ 2; 8 ]; [ 8; 2 ]; [ 4 ]; [ 2; 2 ]; [ 8 ] ]
      in
      Some (Op.Reshape { shape = Shape.of_ints shape })
  | "pad" ->
      let before = Symdim.of_int (Random.State.int st 3)
      and after = Symdim.of_int (Random.State.int st 3) in
      Some (Op.Pad { dim; before; after })
  | "sum" -> Some Op.Sum_n
  | "reduce_sum" -> Some (Op.Reduce_sum { dim; keepdim = Random.State.bool st })
  | "reduce_mean" ->
      Some (Op.Reduce_mean { dim; keepdim = Random.State.bool st })
  | "reduce_max" -> Some (Op.Reduce_max { dim; keepdim = Random.State.bool st })
  | "softmax" -> Some (Op.Softmax { dim })
  | "layernorm" -> Some (Op.Layernorm { eps = 1e-5 })
  | "rmsnorm" -> Some (Op.Rmsnorm { eps = 1e-5 })
  | "embedding" -> Some Op.Embedding
  | "rope" -> Some Op.Rope
  | "mse_loss" -> Some Op.Mse_loss
  | "cross_entropy" -> Some Op.Cross_entropy
  | "all_reduce" -> Some Op.All_reduce
  | "reduce_scatter" ->
      Some (Op.Reduce_scatter { dim; index = Random.State.int st 2; count = 2 })
  | "all_gather" -> Some (Op.All_gather { dim })
  | "swiglu_fused" -> Some Op.Swiglu_fused
  | "hlo_dot" -> Some Op.Hlo_dot
  | _ -> None

(* Binder names appearing in the pattern, with the operator family each
   must draw from. A [Bound] selector reuses a [Family] binder's op. *)
let binders pat =
  let rec go acc = function
    | Pattern.V _ | Pattern.C _ -> acc
    | Pattern.P (sel, args) ->
        let acc =
          match sel with
          | Pattern.Family { family; bind } ->
              if List.mem_assoc bind acc then acc else (bind, family) :: acc
          | Pattern.Fixed _ | Pattern.Bound _ -> acc
        in
        List.fold_left go acc args
  in
  List.rev (go [] pat)

let mentions_integer_op pat =
  let rec go = function
    | Pattern.V _ | Pattern.C _ -> false
    | Pattern.P (sel, args) ->
        (match sel with
        | Pattern.Fixed (Op.Embedding | Op.Cross_entropy) -> true
        | Pattern.Family { family = "embedding" | "cross_entropy"; _ } -> true
        | _ -> false)
        || List.exists go args
  in
  go pat

let has_prefix p x =
  String.length x >= String.length p && String.sub x 0 (String.length p) = p

(* Index suffix of an enumerated chunk variable ("x3" -> 3). *)
let var_index x =
  match int_of_string_opt (String.sub x 1 (String.length x - 1)) with
  | Some i -> i
  | None | (exception Invalid_argument _) -> 0

let sample ?(hints = []) st pat =
  let ( let* ) = Option.bind in
  let has p = List.exists p hints in
  let* ops =
    List.fold_left
      (fun acc (bind, family) ->
        let* acc = acc in
        let* op = sample_op st family in
        Some ((bind, op) :: acc))
      (Some []) (binders pat)
  in
  let allow_integers = mentions_integer_op pat in
  (* Four sampling modes: fully independent variables; a shared shape
     (binary ops, concats and sums need equal chunk shapes far too often
     for independent draws); a "rows" mode where the enumerated chunk
     variables are rank-2 and auxiliary operands (weights, cos/sin
     tables, targets) are rank-1, which is the signature row-wise lemmas
     like rope-concat-rows and cross_entropy-concat expect; and one
     shared tensor, which puts every variable in the same e-class — the
     only way rules conditioned on replicated arguments
     (sum-of-replicas) ever fire. Hints pin the mode instead of leaving
     it to chance, so lemmas whose guards a blind draw almost never
     satisfies still get exercised. *)
  let mode =
    if has (function Lemma.Replicated -> true | _ -> false) then 0
    else if has (function Lemma.Rows -> true | _ -> false) then 3
    else if has (function Lemma.Uniform_chunks -> true | _ -> false) then 1
    else Random.State.int st 6
  in
  let concrete_last =
    List.find_map (function Lemma.Concrete_last k -> Some k | _ -> None) hints
  in
  let with_last s =
    match concrete_last with
    | None -> s
    | Some k -> ( match List.rev s with [] -> s | _ :: r -> List.rev (k :: r))
  in
  let shared_dims = with_last (sample_shape st) in
  let shared_shape = Shape.of_ints shared_dims in
  let shared_tensor =
    Tensor.create ~dtype:Dtype.F32 ~name:"$shared" shared_shape
  in
  let integer_leaning x =
    String.length x > 0 && (x.[0] = 'y' || x = "ids" || x = "targets")
  in
  (* Rows mode: total row count of the concatenated chunk variables, so
     auxiliary operands can also be sampled as full-height tables (rope's
     cos/sin caches are sliced by row offset and must span all chunks). *)
  let total_rows =
    4 * List.length (List.filter (fun v -> v.[0] = 'x') (Pattern.vars pat))
  in
  let concat_dim =
    List.find_map
      (function
        | _, (Op.Concat { dim } | Op.Hlo_concatenate { dim }) -> Some dim
        | _ -> None)
      ops
  in
  let contraction = has (function Lemma.Contraction -> true | _ -> false) in
  let hinted_shape x base =
    let pick_hint =
      List.find_map
        (function
          | Lemma.Vector_aux vs when List.mem x vs ->
              Some [ List.nth base (List.length base - 1) ]
          | Lemma.Matrix_aux vs when List.mem x vs -> Some [ 4; 4 ]
          | Lemma.Table_aux vs when List.mem x vs -> Some [ total_rows; 4 ]
          | Lemma.Broadcast_vars vs when List.mem x vs -> (
              match concat_dim with
              | Some d when d < List.length base ->
                  Some (List.mapi (fun i n -> if i = d then 1 else n) base)
              | _ -> Some base)
          | _ -> None)
        hints
    in
    match pick_hint with
    | Some s -> s
    | None ->
        if contraction && (x.[0] = 'x' || x.[0] = 'y') then
          (* Pairwise-matching contraction dims: x_i : [4; k_i] columns
             against y_i : [k_i; 4] rows. *)
          let k = if var_index x mod 2 = 0 then 2 else 4 in
          if x.[0] = 'x' then [ 4; k ] else [ k; 4 ]
        else base
  in
  let hinted_dtype x base =
    if
      has (function
        | Lemma.Integer_vars ps -> List.exists (fun p -> has_prefix p x) ps
        | _ -> false)
    then Dtype.I64
    else base
  in
  let tensors =
    List.map
      (fun x ->
        if mode = 0 then (x, shared_tensor)
        else
          let dtype =
            hinted_dtype x
              (if not allow_integers then Dtype.F32
               else
                 let threshold = if integer_leaning x then 2 else 1 in
                 if Random.State.int st 4 < threshold then Dtype.I64
                 else Dtype.F32)
          in
          let base =
            if mode <= 2 then shared_dims
            else if mode = 3 then
              with_last
                (if x.[0] = 'x' then [ 4; 4 ]
                 else if Random.State.bool st then [ 4 ]
                 else [ total_rows; 4 ])
            else with_last (sample_shape st)
          in
          (x, Tensor.create ~dtype ~name:("$" ^ x) (Shape.of_ints (hinted_shape x base))))
      (Pattern.vars pat)
  in
  (* Equal-shape hints: a paired variable reuses its leader's freshly
     sampled shape (not the same tensor — the values must stay
     independent). *)
  let tensors =
    let reshape x like =
      match (List.assoc_opt x tensors, List.assoc_opt like tensors) with
      | Some t, Some leader when mode <> 0 ->
          Some
            ( x,
              Tensor.create ~dtype:(Tensor.dtype t) ~name:("$" ^ x)
                (Tensor.shape leader) )
      | _ -> None
    in
    let overrides =
      List.concat_map
        (function
          | Lemma.Paired ->
              List.filter_map
                (fun (x, _) ->
                  if x.[0] = 'y' then
                    reshape x ("x" ^ String.sub x 1 (String.length x - 1))
                  else None)
                tensors
          | Lemma.Same_shape groups ->
              List.concat_map
                (function
                  | leader :: rest ->
                      List.filter_map (fun x -> reshape x leader) rest
                  | [] -> [])
                groups
          | _ -> [])
        hints
    in
    List.map
      (fun (x, t) ->
        match List.assoc_opt x overrides with Some t' -> (x, t') | None -> (x, t))
      tensors
  in
  let rec build = function
    | Pattern.V x -> Some (Expr.leaf (List.assoc x tensors))
    | Pattern.C _ -> None
    | Pattern.P (sel, args) ->
        let* op =
          match sel with
          | Pattern.Fixed op -> Some op
          | Pattern.Family { bind; _ } | Pattern.Bound bind ->
              List.assoc_opt bind ops
        in
        let* args =
          List.fold_left
            (fun acc a ->
              let* acc = acc in
              let* e = build a in
              Some (e :: acc))
            (Some []) args
        in
        Some (Expr.app op (List.rev args))
  in
  let* expr = build pat in
  match infer expr with
  | Ok _ -> Some (expr, { ops; tensors })
  | Error _ -> None

let sample_retry ?(attempts = 40) ?hints st pat =
  let rec go n = if n = 0 then None
    else match sample ?hints st pat with Some r -> Some r | None -> go (n - 1)
  in
  go attempts
