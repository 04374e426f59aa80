(** The location-specifier column of a tuple store: which node owns a
    tuple.  Used by the distributed runtime, which identifies nodes by
    simulator address, and by the model checker's footprint labels. *)

val loc_index_map : Ast.program -> (string, int) Hashtbl.t
(** The location column declared for each predicate, collected from
    rule heads, facts, and body atoms. *)

val tuple_location : int option -> Store.Tuple.t -> string option
(** Owner address of a tuple given its predicate's location column.
    @raise Value.Type_error if the location value is not an address. *)
