open Entangle_symbolic
module Smap = Map.Make (String)

type env = int Smap.t

let env_of_list l = List.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty l

let lookup env s =
  match Smap.find_opt s env with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Interp: unbound shape symbol %s" s)

let dim_value env d = Symdim.eval (lookup env) d

let eval_op env (op : Op.t) (args : Ndarray.t list) =
  let one x = match args with [ a ] -> x a | _ -> invalid_arg "arity" in
  let two f = match args with [ a; b ] -> f a b | _ -> invalid_arg "arity" in
  let three f =
    match args with [ a; b; c ] -> f a b c | _ -> invalid_arg "arity"
  in
  match op with
  | Add -> two Ndarray.add
  | Sub -> two Ndarray.sub
  | Mul -> two Ndarray.mul
  | Div -> two Ndarray.div
  | Maximum -> two (Ndarray.map2 max)
  | Pow -> two (Ndarray.map2 ( ** ))
  | Neg -> one (Ndarray.map (fun x -> -.x))
  | Exp -> one (Ndarray.map exp)
  | Log -> one (Ndarray.map log)
  | Sqrt -> one (Ndarray.map sqrt)
  | Rsqrt -> one (Ndarray.map (fun x -> 1. /. sqrt x))
  | Relu -> one (Ndarray.map (fun x -> max 0. x))
  | Gelu -> one Ndarray.gelu
  | Silu -> one Ndarray.silu
  | Tanh -> one (Ndarray.map tanh)
  | Sigmoid -> one (Ndarray.map (fun x -> 1. /. (1. +. exp (-.x))))
  | Square -> one (Ndarray.map (fun x -> x *. x))
  | Scale r -> one (Ndarray.scale (Rat.to_float r))
  | Matmul | Hlo_dot -> two Ndarray.matmul
  | Identity -> one Fun.id
  | Concat { dim } | Hlo_concatenate { dim } -> Ndarray.concat ~dim args
  | Slice { dim; start; stop } | Hlo_slice { dim; start; stop } ->
      one
        (Ndarray.slice ~dim ~start:(dim_value env start)
           ~stop:(dim_value env stop))
  | Transpose { dim0; dim1 } -> one (Ndarray.transpose ~dim0 ~dim1)
  | Reshape { shape } -> one (Ndarray.reshape (Shape.concrete (lookup env) shape))
  | Pad { dim; before; after } ->
      one
        (Ndarray.pad ~dim ~before:(dim_value env before)
           ~after:(dim_value env after))
  | Sum_n | All_reduce -> Ndarray.sum_list args
  | Reduce_scatter { dim; index; count } -> (
      (* Chunk [index] of the sum is the sum of every input's chunk:
         slice first, so only the kept chunk is added. The axis
         resolves against the rank as shape inference resolves it. *)
      match args with
      | [] -> Ndarray.sum_list []
      | first :: _ ->
          let dim = Shape.normalize_axis ~rank:(Ndarray.rank first) dim in
          let chunk = List.nth (Ndarray.dims first) dim / count in
          Ndarray.sum_list
            (List.map
               (Ndarray.slice ~dim ~start:(index * chunk)
                  ~stop:((index + 1) * chunk))
               args))
  | All_gather { dim } -> Ndarray.concat ~dim args
  | Reduce_sum { dim; keepdim } -> one (Ndarray.reduce_sum ~dim ~keepdim)
  | Reduce_mean { dim; keepdim } -> one (Ndarray.reduce_mean ~dim ~keepdim)
  | Reduce_max { dim; keepdim } -> one (Ndarray.reduce_max ~dim ~keepdim)
  | Softmax { dim } -> one (Ndarray.softmax ~dim)
  | Layernorm { eps } -> three (Ndarray.layernorm ~eps)
  | Rmsnorm { eps } -> two (Ndarray.rmsnorm ~eps)
  | Embedding -> two Ndarray.embedding
  | Rope -> three Ndarray.rope
  | Mse_loss -> two Ndarray.mse_loss
  | Cross_entropy -> two Ndarray.cross_entropy
  | Swiglu_fused -> two (fun g u -> Ndarray.mul (Ndarray.silu g) u)

let rec eval_expr env lookup_tensor = function
  | Expr.Leaf t -> lookup_tensor t
  | Expr.App (op, args) ->
      eval_op env op (List.map (eval_expr env lookup_tensor) args)

type valuation = Ndarray.t Tensor.Map.t

let run env g ~inputs =
  (* The first binding of each tensor, as a scan of [inputs] finds it. *)
  let given = Hashtbl.create (List.length inputs) in
  List.iter
    (fun (t, v) ->
      let id = (Tensor.id t :> int) in
      if not (Hashtbl.mem given id) then Hashtbl.add given id v)
    inputs;
  let valuation = ref Tensor.Map.empty in
  List.iter
    (fun t ->
      match Hashtbl.find_opt given (Tensor.id t :> int) with
      | Some v ->
          let want = Shape.concrete (lookup env) (Tensor.shape t) in
          if Ndarray.dims v <> want then
            invalid_arg
              (Fmt.str "Interp.run: input %a has dims %a, expected %a"
                 Tensor.pp_name t
                 Fmt.(Dump.list int)
                 (Ndarray.dims v)
                 Fmt.(Dump.list int)
                 want);
          valuation := Tensor.Map.add t v !valuation
      | None ->
          invalid_arg (Fmt.str "Interp.run: missing input %a" Tensor.pp t))
    (Graph.inputs g);
  List.iter
    (fun node ->
      let args =
        List.map
          (fun t ->
            match Tensor.Map.find_opt t !valuation with
            | Some v -> v
            | None ->
                invalid_arg
                  (Fmt.str "Interp.run: tensor %a not yet computed" Tensor.pp t))
          (Node.inputs node)
      in
      let v = eval_op env (Node.op node) args in
      valuation := Tensor.Map.add (Node.output node) v !valuation)
    (Graph.nodes g);
  !valuation

let outputs g valuation =
  List.map
    (fun t ->
      match Tensor.Map.find_opt t valuation with
      | Some v -> (t, v)
      | None -> invalid_arg "Interp.outputs: output not computed")
    (Graph.outputs g)

let random_inputs ?int_like st env g =
  let default_int t =
    if Dtype.is_integer (Tensor.dtype t) then Some 8 else None
  in
  let int_like = Option.value int_like ~default:default_int in
  List.map
    (fun t ->
      let dims = Shape.concrete (lookup env) (Tensor.shape t) in
      match int_like t with
      | Some hi -> (t, Ndarray.random_ints st ~hi dims)
      | None -> (t, Ndarray.random st dims))
    (Graph.inputs g)
