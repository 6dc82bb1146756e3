(** Hash tables keyed by ints, hashed by value: a lookup makes no C
    call and allocates nothing, unlike the polymorphic [Hashtbl]. *)

include Hashtbl.S with type key = int
