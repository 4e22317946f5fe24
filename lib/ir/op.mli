(** The operator set of the IR.

    Mirrors the subset of PyTorch's ATen IR exercised by the paper's
    evaluation, plus explicit collective-communication kernels (which
    appear only in distributed graphs) and a few fused / HLO-flavored
    operators used by the vLLM (Qwen2) and NeuronX (Llama-3) models.

    An operator here is a {e kernel}: a vertex of a computation graph.
    The same type doubles as the function symbol of rewrite expressions
    and e-nodes. *)

open Entangle_symbolic

type t =
  (* Elementwise binary, NumPy broadcasting. *)
  | Add
  | Sub
  | Mul
  | Div
  | Maximum
  | Pow
  (* Elementwise unary. *)
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
  | Scale of Rat.t  (** multiply by a rational constant *)
  (* Contractions. *)
  | Matmul
  (* Rearrangement (the "clean" ops of section 3.2). *)
  | Identity
  | Concat of { dim : int }  (** variadic *)
  | Slice of { dim : int; start : Symdim.t; stop : Symdim.t }
  | Transpose of { dim0 : int; dim1 : int }
  | Reshape of { shape : Shape.t }
  | Pad of { dim : int; before : Symdim.t; after : Symdim.t }
      (** zero padding along one dimension *)
  (* Reductions. *)
  | Sum_n  (** variadic elementwise sum; the combining form of all-reduce *)
  | Reduce_sum of { dim : int; keepdim : bool }
  | Reduce_mean of { dim : int; keepdim : bool }
  | Reduce_max of { dim : int; keepdim : bool }
  (* Neural-network kernels. *)
  | Softmax of { dim : int }
  | Layernorm of { eps : float }  (** inputs: x, weight, bias *)
  | Rmsnorm of { eps : float }  (** inputs: x, weight *)
  | Embedding  (** inputs: weight [v; d], ids -> ids-shape @ [d] *)
  | Rope  (** rotary embedding; inputs: x, cos, sin *)
  | Mse_loss  (** inputs: prediction, target -> scalar *)
  | Cross_entropy  (** inputs: logits [s; v], targets [s] -> scalar *)
  (* Collective-communication kernels (distributed graphs only). Each
     node is the kernel as seen from one rank: the inputs are every
     rank's contribution and the output is that rank's local result. *)
  | All_reduce  (** variadic; output = elementwise sum of inputs *)
  | Reduce_scatter of { dim : int; index : int; count : int }
      (** output = chunk [index] of sum of inputs, split [count] ways
          along [dim] *)
  | All_gather of { dim : int }  (** output = concat of inputs *)
  (* Fused kernels (vLLM flavor, lemma class "v"). *)
  | Swiglu_fused  (** inputs: gate, up; silu(gate) * up *)
  (* HLO flavor (NeuronX / XLA, lemma class "h"). *)
  | Hlo_dot  (** HLO dot-general restricted to matmul semantics *)
  | Hlo_slice of { dim : int; start : Symdim.t; stop : Symdim.t }
  | Hlo_concatenate of { dim : int }

type arity = Exact of int | At_least of int

val arity : t -> arity
val arity_ok : t -> int -> bool

val is_clean : t -> bool
(** Whether the operator may appear in a clean expression (section 3.2):
    rearrangements ([slice]/[concat]/[transpose]/[reshape]/[pad]/
    [identity]) and reductions that merely combine distributed tensors
    ([Sum_n] and the collectives). *)

val name : t -> string
(** Mnemonic without attributes, e.g. ["matmul"], ["concat"]. *)

val key : t -> string
(** Canonical string embedding attributes; [key a = key b] iff the two
    operators are semantically the same kernel. Used for hashing and
    ordering in the e-graph. An operator without attributes keys as its
    {!name}; one with attributes as [name(a,b,...)], e.g.
    ["slice(0,0,s)"]. *)

val equal : t -> t -> bool
(** [String.equal (key a) (key b)], answered from the constructor and
    its fields where the key is injective in them. That rests on two
    facts about {!name}: no name contains ['('], and each constructor
    has its own name. So keys of different constructors differ. *)

val compare : t -> t -> int
(** [String.compare (key a) (key b)]. Operators of different
    constructors order by name, which gives the same answer because
    every name character sorts after ['(']. *)

val hash : t -> int
(** [Hashtbl.hash (key op)]. *)

val infer_shape :
  Constraint_store.t -> t -> Shape.t list -> (Shape.t, string) result
(** Output shape from input shapes, consulting the constraint store for
    symbolic comparisons. [Error] explains the shape mismatch, an axis
    out of range for the rank among them; it never raises. *)

val infer_dtype : t -> Dtype.t list -> (Dtype.t, string) result

val pp : t Fmt.t
