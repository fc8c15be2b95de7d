// Declarative codecs for the tagged-field wire messages (api/messages.h,
// util/serde.h framing). A message's wire format is ONE table of rows,
// each `(tag, member, wire kind)` in encode order:
//
//   using IngestRequestFields =
//       Fields<Bytes<1, &IngestRequest::topic>,
//              Bytes<2, &IngestRequest::text>,
//              Scalar<3, &IngestRequest::timestamp_us>>;
//
// The same table drives the encoder (rows written in order) and the
// decoder (each field dispatched to the row with its tag; unknown tags
// skipped), so a tag is declared exactly once. Decode verdicts map onto
// the API's status contract: broken framing or a wrong field width is
// Corruption, a well-framed out-of-range enum is InvalidArgument.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/serde.h"
#include "util/status.h"

namespace bytebrain {
namespace api {
namespace wire {

enum class Verdict : uint8_t { kOk, kMalformed, kOutOfRange };

/// The member a row reads and writes, as a path of member pointers:
/// Member<&TopicConfig::storage, &StorageConfig::kind>.
template <auto... Path>
struct Member {
  template <typename T>
  static auto& Of(T& msg) { return (msg .* ... .* Path); }
};

template <typename T>
struct IsVector : std::false_type {};
template <typename E>
struct IsVector<std::vector<E>> : std::true_type {};
template <typename T>
struct IsOptional : std::false_type {};
template <typename V>
struct IsOptional<std::optional<V>> : std::true_type {};

/// Fixed-width scalar: bool and 4-byte integers/enums travel as u32,
/// double as f64, 8-byte integers as u64 (`int` and `size_t` members
/// convert). A std::optional member is written only when set.
template <uint32_t Tag, auto... Path>
struct Scalar {
  static constexpr uint32_t kTag = Tag;
  using Field = Member<Path...>;

  template <typename V>
  static void Put(FieldWriter& w, V v) {
    if constexpr (std::is_same_v<V, bool>) {
      w.PutBool(Tag, v);
    } else if constexpr (std::is_floating_point_v<V>) {
      w.PutDouble(Tag, v);
    } else if constexpr (sizeof(V) == 4) {
      w.PutU32(Tag, static_cast<uint32_t>(v));
    } else {
      static_assert(sizeof(V) == 8, "wire scalars are 4 or 8 bytes");
      w.PutU64(Tag, static_cast<uint64_t>(v));
    }
  }
  template <typename V>
  static bool Take(std::string_view p, V* v) {
    if constexpr (std::is_same_v<V, bool>) {
      return FieldReader::Bool(p, v);
    } else if constexpr (std::is_floating_point_v<V>) {
      return FieldReader::Double(p, v);
    } else if constexpr (sizeof(V) == 4) {
      uint32_t raw = 0;
      if (!FieldReader::U32(p, &raw)) return false;
      *v = static_cast<V>(raw);
      return true;
    } else {
      uint64_t raw = 0;
      if (!FieldReader::U64(p, &raw)) return false;
      *v = static_cast<V>(raw);
      return true;
    }
  }

  template <typename T>
  static void Encode(const T& msg, FieldWriter& w, std::string*) {
    const auto& v = Field::Of(msg);
    if constexpr (IsOptional<std::decay_t<decltype(v)>>::value) {
      if (v) Put(w, *v);
    } else {
      Put(w, v);
    }
  }
  template <typename T>
  static Verdict Decode(std::string_view p, T& msg) {
    auto& v = Field::Of(msg);
    using V = std::decay_t<decltype(v)>;
    if constexpr (IsOptional<V>::value) {
      typename V::value_type x{};
      if (!Take(p, &x)) return Verdict::kMalformed;
      v = x;
      return Verdict::kOk;
    } else {
      return Take(p, &v) ? Verdict::kOk : Verdict::kMalformed;
    }
  }
};

/// A u32 enum whose decoder rejects values above `Max`.
template <uint32_t Tag, auto Max, auto... Path>
struct Enum : Scalar<Tag, Path...> {
  template <typename T>
  static Verdict Decode(std::string_view p, T& msg) {
    uint32_t raw = 0;
    if (!FieldReader::U32(p, &raw)) return Verdict::kMalformed;
    if (raw > static_cast<uint32_t>(Max)) return Verdict::kOutOfRange;
    Member<Path...>::Of(msg) = static_cast<decltype(Max)>(raw);
    return Verdict::kOk;
  }
};

/// Raw bytes into a std::string (copied) or a std::string_view
/// (borrowed from the decoded buffer). A vector member repeats the
/// field once per element. An api::InPlacePayload member is encoded in
/// place (and left out when it holds no message).
template <uint32_t Tag, auto... Path>
struct Bytes {
  static constexpr uint32_t kTag = Tag;
  using Field = Member<Path...>;

  template <typename T>
  static void Encode(const T& msg, FieldWriter& w, std::string* out) {
    const auto& v = Field::Of(msg);
    using V = std::decay_t<decltype(v)>;
    if constexpr (IsVector<V>::value) {
      for (const auto& e : v) w.PutBytes(Tag, e);
    } else if constexpr (requires { v.encode(v.msg, out); }) {
      if (v.msg == nullptr) return;
      const size_t body = w.Begin(Tag);
      v.encode(v.msg, out);
      w.End(body);
    } else {
      w.PutBytes(Tag, v);
    }
  }
  template <typename T>
  static Verdict Decode(std::string_view p, T& msg) {
    auto& v = Field::Of(msg);
    if constexpr (IsVector<std::decay_t<decltype(v)>>::value) {
      v.emplace_back(p);
    } else {
      v = p;
    }
    return Verdict::kOk;
  }
};

/// Packed u64 array: one field, 8 bytes per element.
template <uint32_t Tag, auto... Path>
struct Packed {
  static constexpr uint32_t kTag = Tag;
  using Field = Member<Path...>;

  template <typename T>
  static void Encode(const T& msg, FieldWriter& w, std::string*) {
    w.PutU64Array(Tag, Field::Of(msg));
  }
  template <typename T>
  static Verdict Decode(std::string_view p, T& msg) {
    return FieldReader::U64Array(p, &Field::Of(msg)) ? Verdict::kOk
                                                     : Verdict::kMalformed;
  }
};

/// A nested message described by its own `Table`; a vector member
/// repeats the field once per element.
template <uint32_t Tag, typename Table, auto... Path>
struct Message {
  static constexpr uint32_t kTag = Tag;
  using Field = Member<Path...>;

  template <typename T>
  static void Encode(const T& msg, FieldWriter& w, std::string* out) {
    const auto& v = Field::Of(msg);
    const auto one = [&](const auto& m) {
      const size_t body = w.Begin(Tag);
      Table::Encode(m, out);
      w.End(body);
    };
    if constexpr (IsVector<std::decay_t<decltype(v)>>::value) {
      for (const auto& e : v) one(e);
    } else {
      one(v);
    }
  }
  template <typename T>
  static Verdict Decode(std::string_view p, T& msg) {
    auto& v = Field::Of(msg);
    using V = std::decay_t<decltype(v)>;
    if constexpr (IsVector<V>::value) {
      typename V::value_type e{};
      const Verdict r = Table::DecodeFields(p, e);
      if (r == Verdict::kOk) v.push_back(std::move(e));
      return r;
    } else {
      v = V();
      return Table::DecodeFields(p, v);
    }
  }
};

/// Writes `Row` only when its member differs from the message type's
/// default (absent decodes back to that default).
template <typename Row>
struct SkipDefault : Row {
  template <typename T>
  static void Encode(const T& msg, FieldWriter& w, std::string* out) {
    static const T kDefault{};
    if (Row::Field::Of(msg) != Row::Field::Of(kDefault)) {
      Row::Encode(msg, w, out);
    }
  }
};

/// Writes `Row` only while the message's bool `Flag` member is set.
template <auto Flag, typename Row>
struct OnlyIf : Row {
  template <typename T>
  static void Encode(const T& msg, FieldWriter& w, std::string* out) {
    if (msg.*Flag) Row::Encode(msg, w, out);
  }
};

/// One message's table: its rows in encode order.
template <typename... Rows>
struct Fields {
  template <typename T>
  static void Encode(const T& msg, std::string* out) {
    FieldWriter w(out);
    (Rows::Encode(msg, w, out), ...);
  }

  /// Decodes into `msg` as it stands (callers reset it).
  template <typename T>
  static Verdict DecodeFields(std::string_view bytes, T& msg) {
    FieldReader fields(bytes);
    uint32_t tag = 0;
    std::string_view p;
    while (fields.Next(&tag, &p)) {
      Verdict r = Verdict::kOk;
      // No row claims an unknown tag: it is skipped.
      (void)((tag == Rows::kTag && (r = Rows::Decode(p, msg), true)) || ...);
      if (r != Verdict::kOk) return r;
    }
    return fields.error() ? Verdict::kMalformed : Verdict::kOk;
  }

  /// Resets `msg` to its defaults and decodes; errors name `what`.
  template <typename T>
  static Status Decode(std::string_view bytes, T* msg, const char* what) {
    *msg = T();
    switch (DecodeFields(bytes, *msg)) {
      case Verdict::kOk:
        return Status::OK();
      case Verdict::kMalformed:
        return Status::Corruption(std::string("truncated or malformed ") +
                                  what);
      case Verdict::kOutOfRange:
        break;
    }
    return Status::InvalidArgument(std::string("out-of-range enum in ") +
                                   what);
  }
};

}  // namespace wire
}  // namespace api
}  // namespace bytebrain
