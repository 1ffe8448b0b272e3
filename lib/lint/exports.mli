(** R13: an export with no caller outside its module.

    A public def of a unit that has an .mli is a finding unless another
    unit of the program uses it: calls it, names it as a value, binds it
    as a [let*] operator, or names its module as a functor argument,
    [include] or first-class module.  Uses resolve through module
    aliases and opens.  Every linted unit counts as a caller, tests and
    executables included, so R13 is meaningful only over the whole
    program. *)

val check : Typed_source.program -> Source.file list -> Finding.t list
