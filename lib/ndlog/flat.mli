(** Flat (id-native) tuple storage.

    Tuples are [int array]s of interned value ids ({!Intern});
    relations are open-addressing hash sets of them; databases are
    mutable maps from predicate names to relations with id-keyed
    secondary indexes that are patched in place on [add]/[remove].
    Joins over this representation compare machine ints where the
    boxed {!Store} walks value structure.

    Mutable, so usable only under linear ownership (the distributed
    runtime's per-node stores, view-refresh working databases); the
    persistent {!Store} remains the model checker's canonical state.
    Nothing here enumerates in canonical order (ids are
    allocation-ordered): observable enumerations must materialize boxed
    tuples ([to_store], {!Intern.tuple_of_ids}) and sort. *)

(** Open-addressing hash sets of id tuples. *)
module Fset : sig
  type t

  val create : ?capacity:int -> unit -> t
  val cardinal : t -> int
  val is_empty : t -> bool
  val mem : t -> int array -> bool

  val add : t -> int array -> bool
  (** [true] when the tuple was not already present. *)

  val remove : t -> int array -> bool
  (** [true] when the tuple was present. *)

  val iter : (int array -> unit) -> t -> unit
  val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a
  val elements : t -> int array list

  val copy : t -> t
  (** The copy is independent: unfrozen, with an empty journal. *)

  val equal : t -> t -> bool

  val capacity : t -> int
  (** Current slot-array length (a power of two) — observable so tests
      can pin growth and compaction behavior. *)

  val freeze : t -> unit
  (** Make every subsequent mutation raise [Invalid_argument].  Backs
      the shared empty relation returned for missing predicates. *)

  type mark
  (** A checkpoint.  [mark] starts journaling every effective
      [add]/[remove]; [rollback] restores the set to the mark by
      inverse replay in O(changes); [commit] drops the mark in O(1)
      (releasing the last outstanding mark discards the journal).
      Marks must be released LIFO, innermost first. *)

  val mark : t -> mark
  val rollback : t -> mark -> unit
  val commit : t -> mark -> unit

  val tuple_eq : int array -> int array -> bool
  val tuple_hash : int array -> int
end

type t

val create : unit -> t

val version : t -> int
(** Bumped on every mutation — the stamp behind materialization
    caches. *)

val relation : t -> string -> Fset.t
(** The relation for [pred].  A missing predicate yields one shared
    {e frozen} empty set (no per-call allocation): mutating it raises,
    so lost updates cannot hide — go through {!add}/{!remove}. *)

val mem : t -> string -> int array -> bool

val add : t -> string -> int array -> bool
(** [true] when newly added; cached indexes are patched in place. *)

val remove : t -> string -> int array -> bool

val cardinal : t -> string -> int
val preds : t -> string list
val is_empty : t -> bool
val iter_rel : t -> string -> (int array -> unit) -> unit
val iter : t -> (string -> int array -> unit) -> unit

val lookup : t -> string -> cols:int list -> key:int array -> int array list
(** Point probe of the [(pred, cols)] secondary index, built on first
    use and patched exact thereafter.  The returned bucket is shared:
    callers must not mutate it. *)

val groups : t -> string -> cols:int list -> (int array * int array list) list
(** Transient grouping by the given columns, in no particular order. *)

val group_set : Fset.t -> cols:int list -> (int array * int array list) list
(** {!groups} over a free-standing tuple set (a delta batch). *)

val copy : t -> t
(** The copy is independent, with an empty journal and no marks. *)

val restrict : t -> string list -> t
(** Deep-copy the named relations into a fresh database.  Preserves
    the source's {!version}, exactly like {!copy}. *)

val union_into : t -> t -> unit

val set_relation : t -> string -> Fset.t -> unit
(** Replace one relation wholesale, patching cached indexes by the
    symmetric difference. *)

type mark
(** A whole-database checkpoint: from [mark] on, every effective
    {!add}/{!remove} is journaled.  {!rollback} restores the database
    (relations {e and} cached indexes, via inverse replay through the
    ordinary mutation path) in O(changes); {!commit} drops the mark in
    O(1), and releasing the last outstanding mark discards the journal
    wholesale.  Marks must be released LIFO, innermost first. *)

val mark : t -> mark
val rollback : t -> mark -> unit
val commit : t -> mark -> unit

val net_since : t -> mark -> (string * int array list * int array list) list
(** [(pred, added, removed)] per predicate touched since the mark —
    the *net* movement (an add cancelled by a later remove reports
    nothing), computed from the journal in O(changes since mark).
    Order of predicates and of tuples within a group is unspecified. *)

val clear_rel : t -> string -> unit
(** Empty one relation through the journaled mutation path. *)

val equal : t -> t -> bool

val to_store : t -> Store.t
(** Materialize the canonical boxed store (cheap direction: an array
    read per element). *)

val of_store : Store.t -> t
(** Translate a boxed store (expensive direction: one hash-cons probe
    per element) — boundary use only. *)
