(** The [Xml] vocabulary: parsing, serialization and stylesheet
    transformation of XML documents (§3.1 lists "parsing and
    transforming XML documents" among the platform vocabularies). *)

val install : Nk_script.Interp.ctx -> unit
