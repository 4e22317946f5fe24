type t = { dims : int array; data : float array }

(* Every kernel below computes each output element with the IEEE
   operations, in the order, that the per-element composition it
   replaced used (kept in test/test_ndarray.ml as the reference):
   folds start from the same initial value and run in increasing index,
   [max] is [Stdlib.max]'s [if a >= b then a else b], and ocamlopt
   contracts nothing into an FMA on amd64. So replay gives the
   reference's bits there, while no kernel calls a closure or allocates
   per element. Bit identity is claimed for amd64 only: on arm64 and
   POWER ocamlopt turns [a *. b +. c] into a fused multiply-add, which
   the fused [rope] and [layernorm] rows write inline. *)

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

let dims t = Array.to_list t.dims
let rank t = Array.length t.dims
let numel t = Array.length t.data

let offset_of t idx =
  let s = strides_of t.dims in
  List.fold_left ( + ) 0 (List.mapi (fun i j -> s.(i) * j) idx)

let get t idx = t.data.(offset_of t idx)
let set t idx v = t.data.(offset_of t idx) <- v

(* Enumerate multi-indices of [dims] in row-major order, reusing one
   mutable index array. *)
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

let init dims f =
  let t = create dims 0. in
  iter_indices t.dims (fun off idx -> t.data.(off) <- f (Array.to_list idx));
  t

let scalar v = { dims = [||]; data = [| v |] }

let of_list dims vals =
  let t = create dims 0. in
  if List.length vals <> numel t then invalid_arg "Ndarray.of_list: size";
  List.iteri (fun i v -> t.data.(i) <- v) vals;
  t

let to_flat_list t = Array.to_list t.data

let random st dims =
  let t = create dims 0. in
  for i = 0 to Array.length t.data - 1 do
    t.data.(i) <- Random.State.float st 2.0 -. 1.0
  done;
  t

let random_ints st ~hi dims =
  let t = create dims 0. in
  for i = 0 to Array.length t.data - 1 do
    t.data.(i) <- float_of_int (Random.State.int st hi)
  done;
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

(* Strides of [t] over a broadcast result of rank [n]: trailing dims
   align; the missing leading dims and size-1 dims of [t] contribute
   stride 0. *)
let bcast_strides t n =
  let r = Array.length t.dims in
  let s = strides_of t.dims in
  Array.init n (fun i ->
      let j = i - (n - r) in
      if j < 0 || t.dims.(j) = 1 then 0 else s.(j))

let same_dims a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* Call [row off oa ob] once per row (run along the last dimension) of
   [dims], in row-major order: [off] is the row's first offset in the
   result, [oa] and [ob] its first offsets in two operands of strides
   [sa] and [sb]. The offsets move incrementally, so a row costs O(1)
   amortized and allocates nothing. A rank-0 [dims] is one row of one
   element. *)
let iter_rows dims sa sb row =
  let n = Array.length dims in
  let total = numel_of dims in
  if total > 0 then begin
    let len = if n = 0 then 1 else dims.(n - 1) in
    let idx = Array.make n 0 in
    let oa = ref 0 and ob = ref 0 and off = ref 0 in
    while !off < total do
      row !off !oa !ob;
      off := !off + len;
      let k = ref (n - 2) in
      while !k >= 0 do
        let i = !k in
        idx.(i) <- idx.(i) + 1;
        oa := !oa + sa.(i);
        ob := !ob + sb.(i);
        if idx.(i) < dims.(i) then k := -1
        else begin
          idx.(i) <- 0;
          oa := !oa - (sa.(i) * dims.(i));
          ob := !ob - (sb.(i) * dims.(i));
          k := i - 1
        end
      done
    done
  end

(* The last entry of a stride or dims array, [empty] at rank 0. *)
let last a ~empty = match Array.length a with 0 -> empty | n -> a.(n - 1)

(* A broadcasting binary kernel. [kernel out x y off oa ob sa sb len]
   fills [len] result elements from [off], reading [x] from [oa] in
   steps of [sa] and [y] from [ob] in steps of [sb]. When both operands
   already have the result's shape, one call covers the whole result;
   otherwise there is one call per row. *)
let broadcast2 kernel a b =
  let dims = broadcast_dims a.dims b.dims in
  let out = Array.create_float (numel_of dims) in
  if same_dims a.dims dims && same_dims b.dims dims then
    kernel out a.data b.data 0 0 0 1 1 (Array.length out)
  else begin
    let n = Array.length dims in
    let sa = bcast_strides a n and sb = bcast_strides b n in
    let la = last sa ~empty:0 and lb = last sb ~empty:0 in
    let len = last dims ~empty:1 in
    iter_rows dims sa sb (fun off oa ob ->
        kernel out a.data b.data off oa ob la lb len)
  end;
  { dims; data = out }

(* [f] sees the operand pairs in the result's row-major order whichever
   path runs. *)
let map2 f =
  broadcast2 (fun out x y off oa ob sa sb len ->
      for i = 0 to len - 1 do
        out.(off + i) <- f x.(oa + (i * sa)) y.(ob + (i * sb))
      done)

let add =
  broadcast2 (fun out x y off oa ob sa sb len ->
      for i = 0 to len - 1 do
        out.(off + i) <- x.(oa + (i * sa)) +. y.(ob + (i * sb))
      done)

let sub =
  broadcast2 (fun out x y off oa ob sa sb len ->
      for i = 0 to len - 1 do
        out.(off + i) <- x.(oa + (i * sa)) -. y.(ob + (i * sb))
      done)

let mul =
  broadcast2 (fun out x y off oa ob sa sb len ->
      for i = 0 to len - 1 do
        out.(off + i) <- x.(oa + (i * sa)) *. y.(ob + (i * sb))
      done)

let div =
  broadcast2 (fun out x y off oa ob sa sb len ->
      for i = 0 to len - 1 do
        out.(off + i) <- x.(oa + (i * sa)) /. y.(ob + (i * sb))
      done)

(* A unary kernel as a plain loop over a fresh array. *)
let unary t kernel =
  let src = t.data in
  let out = Array.create_float (Array.length src) in
  kernel src out;
  { t with data = out }

let scale k t =
  unary t (fun src out ->
      for i = 0 to Array.length src - 1 do
        out.(i) <- k *. src.(i)
      done)

(* Left to right, as [List.fold_left add]: the sum of operands of one
   shape accumulates in place, element by element. *)
let sum_list = function
  | [] -> invalid_arg "Ndarray.sum_list: empty"
  | [ x ] -> x
  | x :: rest when List.for_all (fun t -> same_dims t.dims x.dims) rest ->
      let acc = Array.copy x.data in
      List.iter
        (fun t ->
          for i = 0 to Array.length acc - 1 do
            acc.(i) <- acc.(i) +. t.data.(i)
          done)
        rest;
      { x with data = acc }
  | x :: rest -> List.fold_left add x rest

(* Row [i] of the product accumulates the rows of [b] scaled by row
   [i] of [a], in increasing [l]: each element sums its products in
   increasing [l] from the zero [out] starts at, and [b] is read along
   its rows. *)
let matmul2 a b ~m ~k ~n ~aoff ~boff out ~ooff =
  for i = 0 to m - 1 do
    let orow = ooff + (i * n) in
    for l = 0 to k - 1 do
      let x = a.(aoff + (i * k) + l) and brow = boff + (l * n) in
      for j = 0 to n - 1 do
        out.(orow + j) <- out.(orow + j) +. (x *. b.(brow + j))
      done
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
    matmul2 a.data b.data ~m ~k ~n ~aoff:(i * astep) ~boff:(i * bstep)
      out.data ~ooff:(i * ostep)
  done;
  out

let norm_axis t dim =
  let r = rank t in
  let d = if dim < 0 then r + dim else dim in
  if d < 0 || d >= r then invalid_arg "Ndarray: axis out of range";
  d

(* The products of the dims before and after axis [d]: the array is
   [outer] contiguous blocks, each [dims.(d)] runs of [inner] elements. *)
let outer_inner dims d =
  let outer = ref 1 and inner = ref 1 in
  Array.iteri
    (fun i n ->
      if i < d then outer := !outer * n else if i > d then inner := !inner * n)
    dims;
  (!outer, !inner)

(* Whether [a] and [b] have one rank and agree off axis [d]. *)
let same_off_axis d a b =
  Array.length a = Array.length b
  && Array.for_all2 Int.equal
       (Array.mapi (fun i n -> if i = d then 0 else n) a)
       (Array.mapi (fun i n -> if i = d then 0 else n) b)

let concat ~dim = function
  | [] -> invalid_arg "Ndarray.concat: empty"
  | first :: _ as ts ->
      let d = norm_axis first dim in
      let total =
        List.fold_left
          (fun acc t ->
            if not (same_off_axis d t.dims first.dims) then
              invalid_arg "Ndarray.concat: dims";
            acc + t.dims.(d))
          0 ts
      in
      let dims = Array.copy first.dims in
      dims.(d) <- total;
      let outer, inner = outer_inner dims d in
      let out = Array.create_float (numel_of dims) in
      let row = total * inner in
      let at = ref 0 in
      List.iter
        (fun t ->
          let block = t.dims.(d) * inner in
          for o = 0 to outer - 1 do
            Array.blit t.data (o * block) out ((o * row) + !at) block
          done;
          at := !at + block)
        ts;
      { dims; data = out }

let slice ~dim ~start ~stop t =
  let d = norm_axis t dim in
  if start < 0 || stop > t.dims.(d) || start > stop then
    invalid_arg "Ndarray.slice: bounds";
  let dims = Array.copy t.dims in
  dims.(d) <- stop - start;
  let outer, inner = outer_inner t.dims d in
  let block = (stop - start) * inner and row = t.dims.(d) * inner in
  let out = Array.create_float (numel_of dims) in
  for o = 0 to outer - 1 do
    Array.blit t.data ((o * row) + (start * inner)) out (o * block) block
  done;
  { dims; data = out }

let transpose ~dim0 ~dim1 t =
  let d0 = norm_axis t dim0 and d1 = norm_axis t dim1 in
  let dims = Array.copy t.dims in
  dims.(d0) <- t.dims.(d1);
  dims.(d1) <- t.dims.(d0);
  (* The source strides in the result's axis order: a row walk of the
     result reads the source at these strides. *)
  let s = strides_of t.dims in
  let st = Array.copy s in
  st.(d0) <- s.(d1);
  st.(d1) <- s.(d0);
  let src = t.data in
  let out = Array.create_float (Array.length src) in
  let step = last st ~empty:0 and len = last dims ~empty:1 in
  iter_rows dims st st (fun off o _ ->
      for i = 0 to len - 1 do
        out.(off + i) <- src.(o + (i * step))
      done);
  { dims; data = out }

let reshape dims t =
  let dims = Array.of_list dims in
  if numel_of dims <> numel t then invalid_arg "Ndarray.reshape: size";
  { dims; data = Array.copy t.data }

let pad ~dim ~before ~after t =
  let d = norm_axis t dim in
  let dims = Array.copy t.dims in
  dims.(d) <- t.dims.(d) + before + after;
  let out = Array.make (numel_of dims) 0. in
  let outer, inner = outer_inner t.dims d in
  let block = t.dims.(d) * inner and row = dims.(d) * inner in
  for o = 0 to outer - 1 do
    Array.blit t.data (o * block) out ((o * row) + (before * inner)) block
  done;
  { dims; data = out }

(* Reduce [t] along [dim]: [lane src base step len out at] folds the
   [len] elements of one lane (from [base], [step] apart, in increasing
   index) into [out.(at)]. *)
let reduce lane ~dim ~keepdim t =
  let d = norm_axis t dim in
  let outer, inner = outer_inner t.dims d in
  let len = t.dims.(d) in
  let out = Array.create_float (outer * inner) in
  for o = 0 to outer - 1 do
    for j = 0 to inner - 1 do
      lane t.data ((o * len * inner) + j) inner len out ((o * inner) + j)
    done
  done;
  let dims =
    if keepdim then Array.mapi (fun i n -> if i = d then 1 else n) t.dims
    else
      Array.of_list (List.filteri (fun i _ -> i <> d) (Array.to_list t.dims))
  in
  { dims; data = out }

let sum_lane src base step len out at =
  let acc = ref 0. in
  for k = 0 to len - 1 do
    acc := !acc +. src.(base + (k * step))
  done;
  out.(at) <- !acc

let reduce_sum ~dim ~keepdim t = reduce sum_lane ~dim ~keepdim t

let reduce_mean ~dim ~keepdim t =
  reduce
    (fun src base step len out at ->
      sum_lane src base step len out at;
      out.(at) <- out.(at) /. float_of_int (max 1 len))
    ~dim ~keepdim t

let reduce_max ~dim ~keepdim t =
  reduce
    (fun src base step len out at ->
      let acc = ref neg_infinity in
      for k = 0 to len - 1 do
        let x = src.(base + (k * step)) in
        acc := if !acc >= x then !acc else x
      done;
      out.(at) <- !acc)
    ~dim ~keepdim t

(* Per lane: the maximum, [exp (x -. max)] summed in increasing index,
   and each exponential divided by the sum, as [reduce_max], [sub],
   [map exp], [reduce_sum] and [div] computed them. *)
let softmax ~dim t =
  let d = norm_axis t dim in
  let outer, inner = outer_inner t.dims d in
  let len = t.dims.(d) in
  let src = t.data in
  let out = Array.create_float (Array.length src) in
  for o = 0 to outer - 1 do
    for j = 0 to inner - 1 do
      let base = (o * len * inner) + j in
      let m = ref neg_infinity in
      for k = 0 to len - 1 do
        let x = src.(base + (k * inner)) in
        m := if !m >= x then !m else x
      done;
      let z = ref 0. in
      for k = 0 to len - 1 do
        let i = base + (k * inner) in
        let e = exp (src.(i) -. !m) in
        out.(i) <- e;
        z := !z +. e
      done;
      for k = 0 to len - 1 do
        let i = base + (k * inner) in
        out.(i) <- out.(i) /. !z
      done
    done
  done;
  { dims = t.dims; data = out }

(* [v] must be a vector as long as [x]'s last dimension, the only
   weight and bias shape [Op.infer_shape] admits for a norm. *)
let require_last_dim_vector what x v =
  let r = rank x in
  if r = 0 || not (same_dims v.dims [| x.dims.(r - 1) |]) then invalid_arg what

(* [row x base n out] computes one row of [n] elements from [base]. *)
let per_row x row =
  let n = last x.dims ~empty:1 in
  let out = Array.create_float (Array.length x.data) in
  if n > 0 then
    for r = 0 to (Array.length x.data / n) - 1 do
      row x.data (r * n) n out
    done;
  { dims = x.dims; data = out }

let layernorm ~eps x w b =
  require_last_dim_vector "Ndarray.layernorm: weight" x w;
  require_last_dim_vector "Ndarray.layernorm: bias" x b;
  let w = w.data and b = b.data in
  per_row x (fun src base n out ->
      let count = float_of_int (max 1 n) in
      let s = ref 0. in
      for k = 0 to n - 1 do
        s := !s +. src.(base + k)
      done;
      let mean = !s /. count in
      let sq = ref 0. in
      for k = 0 to n - 1 do
        let c = src.(base + k) -. mean in
        sq := !sq +. (c *. c)
      done;
      let inv = 1. /. sqrt ((!sq /. count) +. eps) in
      for k = 0 to n - 1 do
        out.(base + k) <- ((src.(base + k) -. mean) *. inv *. w.(k)) +. b.(k)
      done)

let rmsnorm ~eps x w =
  require_last_dim_vector "Ndarray.rmsnorm: weight" x w;
  let w = w.data in
  per_row x (fun src base n out ->
      let s = ref 0. in
      for k = 0 to n - 1 do
        let v = src.(base + k) in
        s := !s +. (v *. v)
      done;
      let inv = 1. /. sqrt ((!s /. float_of_int (max 1 n)) +. eps) in
      for k = 0 to n - 1 do
        out.(base + k) <- src.(base + k) *. inv *. w.(k)
      done)

let embedding w ids =
  if rank w <> 2 then invalid_arg "Ndarray.embedding: weight rank";
  let d = w.dims.(1) in
  let out_dims = Array.append ids.dims [| d |] in
  let out = { dims = out_dims; data = Array.make (numel_of out_dims) 0. } in
  Array.iteri
    (fun i id ->
      let row = int_of_float id in
      Array.blit w.data (row * d) out.data (i * d) d)
    ids.data;
  out

(* Rotate-half rotary embedding on the last dimension:
   out = x * cos + rotate_half(x) * sin, with
   rotate_half([x1; x2]) = [-x2; x1]. Fused per row when [cos] and
   [sin] have [x]'s shape. *)
let rope x cos sin =
  let r = rank x in
  let d = x.dims.(r - 1) in
  if d mod 2 <> 0 then invalid_arg "Ndarray.rope: odd last dim";
  let h = d / 2 in
  if same_dims cos.dims x.dims && same_dims sin.dims x.dims then
    let c = cos.data and s = sin.data in
    per_row x (fun src base n out ->
        for k = 0 to n - 1 do
          let i = base + k in
          let rot = if k < h then -.src.(i + h) else src.(i - h) in
          out.(i) <- (src.(i) *. c.(i)) +. (rot *. s.(i))
        done)
  else
    let lo = slice ~dim:(r - 1) ~start:0 ~stop:h x in
    let hi = slice ~dim:(r - 1) ~start:h ~stop:d x in
    let rot = concat ~dim:(r - 1) [ map (fun v -> -.v) hi; lo ] in
    add (mul x cos) (mul rot sin)

let mse_loss p t =
  if p.dims <> t.dims then invalid_arg "Ndarray.mse_loss: dims";
  let n = float_of_int (numel p) in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      let dlt = x -. t.data.(i) in
      acc := !acc +. (dlt *. dlt))
    p.data;
  scalar (!acc /. n)

let cross_entropy logits targets =
  if rank logits <> 2 then invalid_arg "Ndarray.cross_entropy: rank";
  let s = logits.dims.(0) and v = logits.dims.(1) in
  let acc = ref 0. in
  for i = 0 to s - 1 do
    let mx = ref neg_infinity in
    for j = 0 to v - 1 do
      mx := max !mx logits.data.((i * v) + j)
    done;
    let z = ref 0. in
    for j = 0 to v - 1 do
      z := !z +. exp (logits.data.((i * v) + j) -. !mx)
    done;
    let tgt = int_of_float targets.data.(i) in
    acc := !acc +. (!mx +. log !z -. logits.data.((i * v) + tgt))
  done;
  scalar (!acc /. float_of_int s)

let silu t =
  unary t (fun src out ->
      for i = 0 to Array.length src - 1 do
        let x = src.(i) in
        out.(i) <- x /. (1. +. exp (-.x))
      done)

let gelu t =
  let c = sqrt (2. /. Float.pi) in
  unary t (fun src out ->
      for i = 0 to Array.length src - 1 do
        let x = src.(i) in
        out.(i) <-
          0.5 *. x *. (1. +. tanh (c *. (x +. (0.044715 *. x *. x *. x))))
      done)

let max_abs_diff a b =
  if a.dims <> b.dims then infinity
  else begin
    let m = ref 0. in
    for i = 0 to Array.length a.data - 1 do
      let v = abs_float (a.data.(i) -. b.data.(i)) in
      m := if !m >= v then !m else v
    done;
    !m
  end

let approx_equal ?(tol = 1e-4) a b = max_abs_diff a b <= tol

let pp ppf t =
  Fmt.pf ppf "ndarray%a %a"
    Fmt.(brackets (list ~sep:(any "x") int))
    (dims t)
    Fmt.(brackets (list ~sep:(any "; ") float))
    (Array.to_list t.data |> fun l ->
     if List.length l <= 16 then l
     else List.filteri (fun i _ -> i < 16) l)
