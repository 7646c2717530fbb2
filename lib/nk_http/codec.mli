(** HTTP/1.1 wire encoding and decoding.

    Used by tests and the trace tooling; inside the simulator messages
    travel as structured values and only their sizes matter. *)

val encode_request : Message.request -> string

val encode_response : Message.response -> string

val decode_request : string -> (Message.request, string) result
(** Expects an absolute URL on the request line (proxy-style). *)

val decode_response : string -> (Message.response, string) result

val request_wire_size : Message.request -> int
(** Bytes on the wire; drives the simulator's bandwidth model. Equal to
    [String.length (encode_request r)], but summed from the field
    lengths: the body contributes its tracked {!Body.length}, so no
    chunk is read and nothing is allocated for it. *)

val response_wire_size : Message.response -> int
(** [String.length (encode_response r)], computed the same way. *)
