open Entangle_symbolic

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Maximum
  | Pow
  | Neg
  | Exp
  | Log
  | Sqrt
  | Rsqrt
  | Relu
  | Gelu
  | Silu
  | Tanh
  | Sigmoid
  | Square
  | Scale of Rat.t
  | Matmul
  | Identity
  | Concat of { dim : int }
  | Slice of { dim : int; start : Symdim.t; stop : Symdim.t }
  | Transpose of { dim0 : int; dim1 : int }
  | Reshape of { shape : Shape.t }
  | Pad of { dim : int; before : Symdim.t; after : Symdim.t }
  | Sum_n
  | Reduce_sum of { dim : int; keepdim : bool }
  | Reduce_mean of { dim : int; keepdim : bool }
  | Reduce_max of { dim : int; keepdim : bool }
  | Softmax of { dim : int }
  | Layernorm of { eps : float }
  | Rmsnorm of { eps : float }
  | Embedding
  | Rope
  | Mse_loss
  | Cross_entropy
  | All_reduce
  | Reduce_scatter of { dim : int; index : int; count : int }
  | All_gather of { dim : int }
  | Swiglu_fused
  | Hlo_dot
  | Hlo_slice of { dim : int; start : Symdim.t; stop : Symdim.t }
  | Hlo_concatenate of { dim : int }

type arity = Exact of int | At_least of int

let arity = function
  | Add | Sub | Mul | Div | Maximum | Pow -> Exact 2
  | Neg | Exp | Log | Sqrt | Rsqrt | Relu | Gelu | Silu | Tanh | Sigmoid
  | Square | Scale _ ->
      Exact 1
  | Matmul | Hlo_dot -> Exact 2
  | Identity -> Exact 1
  | Concat _ | Hlo_concatenate _ -> At_least 1
  | Slice _ | Hlo_slice _ -> Exact 1
  | Transpose _ -> Exact 1
  | Reshape _ -> Exact 1
  | Pad _ -> Exact 1
  | Sum_n -> At_least 1
  | Reduce_sum _ | Reduce_mean _ | Reduce_max _ -> Exact 1
  | Softmax _ -> Exact 1
  | Layernorm _ -> Exact 3
  | Rmsnorm _ -> Exact 2
  | Embedding -> Exact 2
  | Rope -> Exact 3
  | Mse_loss -> Exact 2
  | Cross_entropy -> Exact 2
  | All_reduce -> At_least 1
  | Reduce_scatter _ -> At_least 1
  | All_gather _ -> At_least 1
  | Swiglu_fused -> Exact 2

let arity_ok op n =
  match arity op with Exact k -> n = k | At_least k -> n >= k

let is_clean = function
  | Identity | Concat _ | Slice _ | Transpose _ | Reshape _ | Pad _ | Sum_n
  | All_reduce | Reduce_scatter _ | All_gather _ | Hlo_slice _
  | Hlo_concatenate _ ->
      true
  | Add | Sub | Mul | Div | Maximum | Pow | Neg | Exp | Log | Sqrt | Rsqrt
  | Relu | Gelu | Silu | Tanh | Sigmoid | Square | Scale _ | Matmul
  | Reduce_sum _ | Reduce_mean _ | Reduce_max _ | Softmax _ | Layernorm _
  | Rmsnorm _ | Embedding | Rope | Mse_loss | Cross_entropy | Swiglu_fused
  | Hlo_dot ->
      false

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Maximum -> "maximum"
  | Pow -> "pow"
  | Neg -> "neg"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Relu -> "relu"
  | Gelu -> "gelu"
  | Silu -> "silu"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Square -> "square"
  | Scale _ -> "scale"
  | Matmul -> "matmul"
  | Identity -> "identity"
  | Concat _ -> "concat"
  | Slice _ -> "slice"
  | Transpose _ -> "transpose"
  | Reshape _ -> "reshape"
  | Pad _ -> "pad"
  | Sum_n -> "sum"
  | Reduce_sum _ -> "reduce_sum"
  | Reduce_mean _ -> "reduce_mean"
  | Reduce_max _ -> "reduce_max"
  | Softmax _ -> "softmax"
  | Layernorm _ -> "layernorm"
  | Rmsnorm _ -> "rmsnorm"
  | Embedding -> "embedding"
  | Rope -> "rope"
  | Mse_loss -> "mse_loss"
  | Cross_entropy -> "cross_entropy"
  | All_reduce -> "all_reduce"
  | Reduce_scatter _ -> "reduce_scatter"
  | All_gather _ -> "all_gather"
  | Swiglu_fused -> "swiglu_fused"
  | Hlo_dot -> "hlo_dot"
  | Hlo_slice _ -> "hlo_slice"
  | Hlo_concatenate _ -> "hlo_concatenate"

(* [name(a,b,...)]: the key of an operator with attributes. Integers,
   booleans, rationals and constant dimensions print with
   [string_of_int]/[string_of_bool], byte for byte what the [Format]
   directives they replace printed; symbolic dimensions, shapes holding
   one, and floats still go through their printers. *)
let call name args = String.concat "" [ name; "("; String.concat "," args; ")" ]
let int = string_of_int

let dim d =
  if Symdim.is_const d then int (Symdim.const_part d) else Symdim.to_string d

let rat r =
  if Rat.den r = 1 then int (Rat.num r)
  else int (Rat.num r) ^ "/" ^ int (Rat.den r)

let key op =
  match op with
  | Scale r -> call "scale" [ rat r ]
  | Concat { dim = d } -> call "concat" [ int d ]
  | Hlo_concatenate { dim = d } -> call "hlo_concatenate" [ int d ]
  | Slice { dim = d; start; stop } ->
      call "slice" [ int d; dim start; dim stop ]
  | Hlo_slice { dim = d; start; stop } ->
      call "hlo_slice" [ int d; dim start; dim stop ]
  | Transpose { dim0; dim1 } -> call "transpose" [ int dim0; int dim1 ]
  | Reshape { shape } ->
      call "reshape" [ "[" ^ String.concat ", " (List.map dim shape) ^ "]" ]
  | Pad { dim = d; before; after } ->
      call "pad" [ int d; dim before; dim after ]
  | Reduce_sum { dim = d; keepdim } ->
      call "reduce_sum" [ int d; string_of_bool keepdim ]
  | Reduce_mean { dim = d; keepdim } ->
      call "reduce_mean" [ int d; string_of_bool keepdim ]
  | Reduce_max { dim = d; keepdim } ->
      call "reduce_max" [ int d; string_of_bool keepdim ]
  | Softmax { dim = d } -> call "softmax" [ int d ]
  | Layernorm { eps } -> Printf.sprintf "layernorm(%h)" eps
  | Rmsnorm { eps } -> Printf.sprintf "rmsnorm(%h)" eps
  | Reduce_scatter { dim = d; index; count } ->
      call "reduce_scatter" [ int d; int index; int count ]
  | All_gather { dim = d } -> call "all_gather" [ int d ]
  | _ -> name op

(* [equal] answers from the fields wherever the key is injective in
   them, and from the keys elsewhere. Constant dimensions print as their
   integers, but a symbol may be named like an integer, so dimensions
   that are not all constant compare keys. Keys of different
   constructors differ (see op.mli), so their names decide. *)
let const = Symdim.is_const
let same d e = Symdim.const_part d = Symdim.const_part e

let equal a b =
  a == b
  ||
  match (a, b) with
  | Scale r, Scale s -> Rat.num r = Rat.num s && Rat.den r = Rat.den s
  | Concat { dim = d }, Concat { dim = e }
  | Hlo_concatenate { dim = d }, Hlo_concatenate { dim = e }
  | Softmax { dim = d }, Softmax { dim = e }
  | All_gather { dim = d }, All_gather { dim = e } ->
      d = e
  | Transpose { dim0; dim1 }, Transpose { dim0 = e0; dim1 = e1 } ->
      dim0 = e0 && dim1 = e1
  | Reduce_sum { dim = d; keepdim = k }, Reduce_sum { dim = e; keepdim = l }
  | Reduce_mean { dim = d; keepdim = k }, Reduce_mean { dim = e; keepdim = l }
  | Reduce_max { dim = d; keepdim = k }, Reduce_max { dim = e; keepdim = l } ->
      d = e && Bool.equal k l
  | ( Reduce_scatter { dim = d; index = i; count = c },
      Reduce_scatter { dim = e; index = j; count = n } ) ->
      d = e && i = j && c = n
  | ( Slice { dim = d; start = s; stop = t },
      Slice { dim = e; start = u; stop = v } )
  | ( Hlo_slice { dim = d; start = s; stop = t },
      Hlo_slice { dim = e; start = u; stop = v } )
  | ( Pad { dim = d; before = s; after = t },
      Pad { dim = e; before = u; after = v } )
    when const s && const t && const u && const v ->
      d = e && same s u && same t v
  | Reshape { shape = s }, Reshape { shape = t }
    when List.for_all const s && List.for_all const t ->
      List.equal same s t
  | _ -> String.equal (name a) (name b) && String.equal (key a) (key b)

(* Keys order first by name: two names differ before either ends, or
   one is a prefix of the other and its key continues with "(", which
   sorts before every name character. *)
let compare a b =
  if equal a b then 0
  else
    match String.compare (name a) (name b) with
    | 0 -> String.compare (key a) (key b)
    | c -> c

let hash op = Hashtbl.hash (key op)
let pp ppf op = Fmt.string ppf (key op)

(* ------------------------------------------------------------------ *)
(* Shape inference                                                     *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let err fmt = Fmt.kstr (fun s -> Error s) fmt

let expect_rank shape k what =
  if Shape.rank shape >= k then Ok ()
  else err "%s: expected rank >= %d, got %a" what k Shape.pp shape

let all_same_shape store shapes what =
  match shapes with
  | [] -> err "%s: no inputs" what
  | s :: rest ->
      if List.for_all (Shape.equal store s) rest then Ok s
      else err "%s: inputs disagree in shape" what

let broadcast2 store a b what =
  match Shape.broadcast store a b with
  | Some s -> Ok s
  | None -> err "%s: shapes %a and %a do not broadcast" what Shape.pp a Shape.pp b

(* [m; k] x [k; n], with optional matching leading batch dimensions on
   the left operand (a rank-2 right operand broadcasts over batches). *)
let matmul_shape store a b =
  let* () = expect_rank a 2 "matmul lhs" in
  let* () = expect_rank b 2 "matmul rhs" in
  let ra = Shape.rank a and rb = Shape.rank b in
  let ka = Shape.dim a (-1) in
  let kb = Shape.dim b (if rb = 2 then 0 else rb - 2) in
  if not (Decide.prove_eq store ka kb) then
    err "matmul: contraction dims %a vs %a" Symdim.pp ka Symdim.pp kb
  else
    let m = Shape.dim a (-2) and n = Shape.dim b (-1) in
    if rb = 2 then
      let batch = List.filteri (fun i _ -> i < ra - 2) a in
      Ok (batch @ [ m; n ])
    else if ra = rb then begin
      let batch_a = List.filteri (fun i _ -> i < ra - 2) a in
      let batch_b = List.filteri (fun i _ -> i < rb - 2) b in
      if List.for_all2 (Decide.prove_eq store) batch_a batch_b then
        Ok (batch_a @ [ m; n ])
      else err "matmul: batch dims disagree"
    end
    else err "matmul: rank mismatch %d vs %d" ra rb

(* [dim] as an index into a rank-[rank] shape, counting from the end
   when negative. *)
let axis what ~rank dim =
  let j = if dim < 0 then rank + dim else dim in
  if j < 0 || j >= rank then
    err "%s: axis %d out of range for rank %d" what dim rank
  else Ok j

let reduce_shape what shape dim keepdim =
  let* d = axis what ~rank:(Shape.rank shape) dim in
  if keepdim then Ok (Shape.set_dim shape d Symdim.one)
  else Ok (List.filteri (fun i _ -> i <> d) shape)

let infer_shape store op (inputs : Shape.t list) =
  let n = List.length inputs in
  if not (arity_ok op n) then
    err "%s: wrong arity %d" (name op) n
  else
    match (op, inputs) with
    | (Add | Sub | Mul | Div | Maximum | Pow), [ a; b ] ->
        broadcast2 store a b (name op)
    | ( ( Neg | Exp | Log | Sqrt | Rsqrt | Relu | Gelu | Silu | Tanh | Sigmoid
        | Square | Scale _ | Identity ),
        [ a ] ) ->
        Ok a
    | (Matmul | Hlo_dot), [ a; b ] -> matmul_shape store a b
    | (Concat { dim } | Hlo_concatenate { dim }), (first :: _ as shapes) ->
        let rank = Shape.rank first in
        let* d = axis (name op) ~rank dim in
        let* () =
          if List.for_all (fun s -> Shape.rank s = rank) shapes then Ok ()
          else err "concat: rank mismatch"
        in
        let* () =
          let ok =
            List.for_all
              (fun s ->
                List.for_all
                  (fun i ->
                    i = d
                    || Decide.prove_eq store (Shape.dim s i) (Shape.dim first i))
                  (List.init rank Fun.id))
              shapes
          in
          if ok then Ok () else err "concat: non-concat dims disagree"
        in
        let total =
          List.fold_left
            (fun acc s -> Symdim.add acc (Shape.dim s d))
            Symdim.zero shapes
        in
        Ok (Shape.set_dim first d total)
    | (Slice { dim; start; stop } | Hlo_slice { dim; start; stop }), [ a ] ->
        let* d = axis (name op) ~rank:(Shape.rank a) dim in
        let size = Shape.dim a d in
        let width = Symdim.sub stop start in
        if Decide.prove_lt store stop start then
          err "slice: stop %a < start %a" Symdim.pp stop Symdim.pp start
        else if Decide.prove_lt store size stop then
          err "slice: stop %a exceeds dim %a" Symdim.pp stop Symdim.pp size
        else Ok (Shape.set_dim a d width)
    | Transpose { dim0; dim1 }, [ a ] ->
        let rank = Shape.rank a in
        let* d0 = axis "transpose" ~rank dim0 in
        let* d1 = axis "transpose" ~rank dim1 in
        let x0 = Shape.dim a d0 and x1 = Shape.dim a d1 in
        Ok (Shape.set_dim (Shape.set_dim a d0 x1) d1 x0)
    | Reshape { shape }, [ a ] -> (
        match (Shape.numel a, Shape.numel shape) with
        | Some na, Some nb ->
            if Decide.prove_eq store na nb then Ok shape
            else err "reshape: element counts %a vs %a" Symdim.pp na Symdim.pp nb
        | _ -> Ok shape)
    | Pad { dim; before; after }, [ a ] ->
        let* d = axis "pad" ~rank:(Shape.rank a) dim in
        let size = Shape.dim a d in
        Ok (Shape.set_dim a d (Symdim.add size (Symdim.add before after)))
    | Sum_n, shapes | All_reduce, shapes -> all_same_shape store shapes (name op)
    | Reduce_scatter { dim; index; count }, shapes ->
        let* s = all_same_shape store shapes "reduce_scatter" in
        let* d = axis "reduce_scatter" ~rank:(Shape.rank s) dim in
        let* () =
          if index < 0 || index >= count then
            err "reduce_scatter: index %d out of %d" index count
          else Ok ()
        in
        let size = Shape.dim s d in
        (match Symdim.div_int size count with
        | Some chunk -> Ok (Shape.set_dim s d chunk)
        | None ->
            err "reduce_scatter: dim %a not divisible by %d" Symdim.pp size
              count)
    | All_gather { dim }, (first :: _ as shapes) ->
        let* d = axis "all_gather" ~rank:(Shape.rank first) dim in
        let* _ = all_same_shape store shapes "all_gather" in
        let total = Symdim.mul_int (List.length shapes) (Shape.dim first d) in
        Ok (Shape.set_dim first d total)
    | (Reduce_sum { dim; keepdim } | Reduce_mean { dim; keepdim }
      | Reduce_max { dim; keepdim }), [ a ] ->
        reduce_shape (name op) a dim keepdim
    | Softmax { dim }, [ a ] ->
        let* _ = axis "softmax" ~rank:(Shape.rank a) dim in
        Ok a
    | Layernorm _, [ x; w; b ] ->
        let* () = expect_rank x 1 "layernorm" in
        let d = Shape.dim x (-1) in
        let ok s =
          Shape.rank s = 1 && Decide.prove_eq store (Shape.dim s 0) d
        in
        if ok w && ok b then Ok x
        else err "layernorm: weight/bias must be [%a]" Symdim.pp d
    | Rmsnorm _, [ x; w ] ->
        let* () = expect_rank x 1 "rmsnorm" in
        let d = Shape.dim x (-1) in
        if Shape.rank w = 1 && Decide.prove_eq store (Shape.dim w 0) d then Ok x
        else err "rmsnorm: weight must be [%a]" Symdim.pp d
    | Embedding, [ w; ids ] ->
        let* () =
          if Shape.rank w = 2 then Ok () else err "embedding: weight not rank 2"
        in
        Ok (ids @ [ Shape.dim w 1 ])
    | Rope, [ x; cos; sin ] ->
        let* () = expect_rank x 2 "rope" in
        let* _ = broadcast2 store x cos "rope cos" in
        let* _ = broadcast2 store x sin "rope sin" in
        Ok x
    | Mse_loss, [ p; t ] ->
        if Shape.equal store p t then Ok Shape.scalar
        else err "mse_loss: shapes disagree"
    | Cross_entropy, [ logits; targets ] ->
        let* () = expect_rank logits 2 "cross_entropy" in
        if Shape.rank targets = Shape.rank logits - 1 then Ok Shape.scalar
        else err "cross_entropy: target rank"
    | Swiglu_fused, [ g; u ] ->
        if Shape.equal store g u then Ok g
        else err "swiglu_fused: shapes disagree"
    | _ -> err "%s: unsupported input signature" (name op)

let infer_dtype op (inputs : Dtype.t list) =
  let promote_all what = function
    | [] -> err "%s: no inputs" what
    | d :: rest ->
        List.fold_left
          (fun acc x ->
            let* a = acc in
            match Dtype.promote a x with
            | Some d -> Ok d
            | None -> err "%s: incompatible dtypes" what)
          (Ok d) rest
  in
  match (op, inputs) with
  | Embedding, [ w; ids ] ->
      if Dtype.is_integer ids then Ok w else err "embedding: ids must be integer"
  | Cross_entropy, [ logits; targets ] ->
      if Dtype.is_integer targets && Dtype.is_float logits then Ok logits
      else err "cross_entropy: dtypes"
  | _, inputs -> promote_all (name op) inputs
