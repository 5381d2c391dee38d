/* flick-runtime.h — the runtime vocabulary for Flick-generated C stubs.
 *
 * The C stubs are printed from the same marshal IR the executable Python
 * stubs run, and put the same bytes on the wire.  This header is what
 * they assume: fixed-width wire types with byte-order-explicit loads and
 * stores, the marshal-buffer interface (one capacity check per chunk,
 * constant offsets from the chunk's start), transport entry points, and
 * the C types the CORBA-C and rpcgen presentations use.  Everything
 * declared but not defined here is the transport's to provide.  GNU C
 * (statement expressions, __auto_type) is required.
 */

#ifndef FLICK_RUNTIME_H
#define FLICK_RUNTIME_H

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* ---- fixed-width wire types ------------------------------------- */

typedef int8_t   flick_s8;
typedef uint8_t  flick_u8;
typedef int16_t  flick_s16;
typedef uint16_t flick_u16;
typedef int32_t  flick_s32;
typedef uint32_t flick_u32;
typedef int64_t  flick_s64;
typedef uint64_t flick_u64;
typedef float    flick_f32;
typedef double   flick_f64;

/* Loads and stores in an explicit byte order: flick_put_s32be(p, v),
 * flick_get_f64le(p), ...  They compile to one move (plus a swap when
 * the wire order is not the host's). */
static inline void flick_copy_bytes(void *to, const void *from, size_t n,
                                    int big_endian)
{
    if (big_endian == (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)) {
        memcpy(to, from, n);
        return;
    }
    for (size_t i = 0; i < n; i++)
        ((char *)to)[i] = ((const char *)from)[n - 1 - i];
}

#define FLICK_ATOM(T, name)                                             \
    static inline void flick_put_##name##be(char *p, T v)              \
    { flick_copy_bytes(p, &v, sizeof v, 1); }                         \
    static inline void flick_put_##name##le(char *p, T v)              \
    { flick_copy_bytes(p, &v, sizeof v, 0); }                         \
    static inline T flick_get_##name##be(const char *p)                \
    { T v; flick_copy_bytes(&v, p, sizeof v, 1); return v; }          \
    static inline T flick_get_##name##le(const char *p)                \
    { T v; flick_copy_bytes(&v, p, sizeof v, 0); return v; }

FLICK_ATOM(flick_s8, s8)   FLICK_ATOM(flick_u8, u8)
FLICK_ATOM(flick_s16, s16) FLICK_ATOM(flick_u16, u16)
FLICK_ATOM(flick_s32, s32) FLICK_ATOM(flick_u32, u32)
FLICK_ATOM(flick_s64, s64) FLICK_ATOM(flick_u64, u64)
FLICK_ATOM(flick_f32, f32) FLICK_ATOM(flick_f64, f64)

/* Element-wise copy of n decoded atoms into presented storage. */
#define flick_copy_n(to, from, n)                                       \
    ({ for (size_t _k = 0; _k < (size_t)(n); _k++) (to)[_k] = (from)[_k]; })

/* Helpers and error-reply encoders the stubs may or may not call. */
#define FLICK_LOCAL static __attribute__((unused))

/* A received message being decoded: its bytes, length and the offset
 * decoding starts at. */
#define FLICK_DECODING(msg, at)                                         \
    const char *_m __attribute__((unused)) = (msg)->data;              \
    size_t _len __attribute__((unused)) = (msg)->length;               \
    size_t _o __attribute__((unused)) = (at)

/* ---- marshal buffers --------------------------------------------- */

typedef struct flick_buf {
    char   *data;      /* backing storage                              */
    size_t  length;    /* bytes marshaled (or received) so far         */
    size_t  capacity;  /* allocated bytes                              */
} flick_buf_t;

void flick_buf_grow(flick_buf_t *buf, size_t need);

/* One free-space check guards a whole message region (section 3.1). */
#define flick_check_room(buf, n)                                \
    do {                                                        \
        if ((buf)->length + (size_t)(n) > (buf)->capacity)      \
            flick_buf_grow((buf), (size_t)(n));                 \
    } while (0)

/* Claim n bytes at the end of the message: one check for a whole chunk,
 * whose stores then go to constant offsets from the returned start. */
static inline size_t flick_reserve(flick_buf_t *buf, size_t n)
{
    size_t at;
    flick_check_room(buf, n);
    at = buf->length;
    buf->length += n;
    return at;
}

/* The same after `pad` zeroed bytes of alignment; returns the offset
 * past them. */
static inline size_t flick_reserve_padded(flick_buf_t *buf, size_t pad,
                                          size_t n)
{
    size_t at = flick_reserve(buf, pad + n);
    memset(buf->data + at, 0, pad);
    return at + pad;
}

/* ---- objects and transports --------------------------------------- */

typedef struct flick_object *flick_object_t;

flick_buf_t *flick_object_buffer(flick_object_t obj);
void flick_send(flick_object_t obj, flick_buf_t *msg);
/* Sends msg and replaces its contents with the reply. */
void flick_send_await_reply(flick_object_t obj, flick_buf_t *msg);
/* The id the next request carries (transaction id, GIOP request id). */
flick_u32 flick_next_id(void);

/* rpcgen presentations use the classic client handle. */
typedef struct CLIENT CLIENT;
flick_buf_t *flick_client_buffer(CLIENT *clnt);

/* Resolves to the right buffer accessor for either handle style. */
#define flick_stream_buffer(handle)                             \
    _Generic((handle),                                          \
             CLIENT *: flick_client_buffer,                     \
             default:  flick_object_buffer)(handle)

/* Word `word` of a received request's operation key, big endian. */
flick_u32 flick_demux_word(flick_buf_t *in, unsigned word);
#define FLICK_NO_SUCH_OPERATION (-303)

/* Where the body of a received message begins, for headers of variable
 * length (GIOP: service contexts, object key, operation name). */
size_t flick_body_offset(flick_buf_t *msg);

/* Storage for decoded variable-length data: strings, sequences, the
 * targets of optional pointers.  It lives until the runtime reclaims
 * the message (section 3.1: servants keep no references). */
void *flick_alloc(size_t n);

/* A decoded sequence of n elements: its length and its storage. */
#define flick_alloc_seq(seq, n)                                         \
    ((seq)._length = (n),                                               \
     (seq)._buffer = flick_alloc((n) * sizeof *(seq)._buffer))

/* A NUL-terminated copy of n received bytes. */
static inline char *flick_strndup(const char *from, size_t n)
{
    char *to = flick_alloc(n + 1);
    memcpy(to, from, n);
    to[n] = 0;
    return to;
}

/* A refused message: bound, length or truncation check failed. */
void flick_error(const char *what);

/* ---- CORBA C mapping base types ----------------------------------- */

typedef flick_s16 CORBA_short;
typedef flick_u16 CORBA_unsigned_short;
typedef flick_s32 CORBA_long;
typedef flick_u32 CORBA_unsigned_long;
typedef flick_s64 CORBA_long_long;
typedef flick_u64 CORBA_unsigned_long_long;
typedef flick_f32 CORBA_float;
typedef flick_f64 CORBA_double;
typedef char      CORBA_char;
typedef flick_u8  CORBA_octet;
typedef flick_u8  CORBA_boolean;

typedef struct CORBA_Environment {
    int _major;   /* CORBA_NO_EXCEPTION / SYSTEM / USER */
    const char *_id;
} CORBA_Environment;

/* ---- rpcgen / XDR base types --------------------------------------- */

typedef flick_u8  u_char;
typedef flick_u16 u_short;
typedef flick_u32 u_int;
typedef flick_s32 bool_t;
typedef flick_s64 quad_t;
typedef flick_u64 u_quad_t;

/* ---- generic sequence carriers ------------------------------------- */

typedef struct {
    flick_u32 _length;
    flick_u8 *_buffer;
} flick_octet_seq;

typedef flick_octet_seq CORBA_octet_seq;
typedef flick_octet_seq opaque_seq;

#endif /* FLICK_RUNTIME_H */
