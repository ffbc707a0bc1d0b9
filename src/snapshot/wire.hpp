#pragma once

// Little-endian encoding for snapshot sections, and the archive interface
// the StateIO field lists are written against (DESIGN.md §8).
//
// Every section payload is built with an Encoder and parsed with a Decoder.
// The two share one interface, so a subsystem's field list is a single
// template that the Encoder runs at capture and the Decoder at restore:
//
//   a(x, y, ...)              each field at the width of its type: bool and
//                             char 1 byte, int and enums 4, SimTime, size_t
//                             and uint64_t 8; a string as a u64 length and
//                             its bytes; pairs and fixed-size arrays field
//                             by field, with no count
//   a.list(c, each)           a u32 count, then each(element) in c's own
//                             order (key order for the maps); the Decoder
//                             clears c and refills it
//   a.sameSize(c, what, each) a u32 count, then each(element) in place: the
//                             fresh build already sized c, and the Decoder
//                             refuses a count that differs
//   Ar::kLoading              true for the Decoder: guards the few steps that
//                             only a restore runs
//
// `each` defaults to writing the element as one field.  The Decoder is
// bounds-checked on every read and throws SnapshotError naming its section,
// so a truncated or bit-flipped payload that slips past the CRC (it cannot,
// but defense in depth is free here) still fails loudly instead of reading
// out of bounds.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "snapshot/error.hpp"

namespace bcs::snapshot {

namespace wire {

template <class C>
concept Sequence = requires { typename C::value_type; };
template <class C>
concept Keyed = Sequence<C> && requires { typename C::mapped_type; };

template <class M>
struct ArgOf;
template <class C, class T>
struct ArgOf<void (C::*)(const T&)> {
  using type = T;
};

/// What the Decoder builds before adding it to a C: what insert() takes for
/// the match indexes, value_type for sequences, a (key, value) pair for maps.
template <class C>
struct ElementOf {
  using type = typename ArgOf<decltype(&C::insert)>::type;
};
template <Sequence C>
struct ElementOf<C> {
  using type = typename C::value_type;
};
template <Keyed C>
struct ElementOf<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

}  // namespace wire

class Encoder {
 public:
  static constexpr bool kLoading = false;

  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  template <class C, class Each>
  void list(const C& c, Each each) {
    put(static_cast<std::uint32_t>(c.size()));
    if constexpr (requires { c.forEach(each); }) {
      c.forEach(each);
    } else {
      for (const auto& x : c) each(x);
    }
  }
  template <class C>
  void list(const C& c) {
    list(c, [this](const auto& x) { put(x); });
  }

  template <class C, class Each>
  void sameSize(const C& c, const char* /*what*/, Each each) {
    list(c, each);
  }
  template <class C>
  void sameSize(const C& c, const char* what) {
    sameSize(c, what, [this](const auto& x) { put(x); });
  }

  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void bytes(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  const std::string& data() const { return out_; }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::int32_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      const auto u = static_cast<std::uint64_t>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out_.push_back(static_cast<char>((u >> (8 * i)) & 0xff));
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint64_t>(v.size()));
      out_.append(v);
    } else if constexpr (requires { v.first; v.second; }) {
      put(v.first);
      put(v.second);
    } else {
      for (const auto& x : v) put(x);
    }
  }

  std::string out_;
};

class Decoder {
 public:
  static constexpr bool kLoading = true;

  Decoder(std::string_view data, std::string section)
      : data_(data), section_(std::move(section)) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

  template <class C, class Each>
  void list(C& c, Each each) {
    const std::uint32_t n = u32();
    c.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      typename wire::ElementOf<C>::type x{};
      each(x);
      if constexpr (requires { c.push_back(std::move(x)); }) {
        c.push_back(std::move(x));
      } else {
        c.insert(std::move(x));
      }
    }
  }
  template <class C>
  void list(C& c) {
    list(c, [this](auto& x) { get(x); });
  }

  template <class C, class Each>
  void sameSize(C& c, const char* what, Each each) {
    const std::uint32_t n = u32();
    if (n != c.size()) {
      fail(std::string(what) + " count mismatch (snapshot " +
           std::to_string(n) + ", fresh " + std::to_string(c.size()) + ")");
    }
    for (auto& x : c) each(x);
  }
  template <class C>
  void sameSize(C& c, const char* what) {
    sameSize(c, what, [this](auto& x) { get(x); });
  }

  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  void bytes(void* dst, std::size_t n) {
    need(n);
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
  }

  /// Call after the last field: trailing garbage means the payload does not
  /// match the schema this build expects.
  void expectEnd() const {
    if (pos_ != data_.size()) {
      throw SnapshotError(section_, std::to_string(data_.size() - pos_) +
                                        " trailing byte(s) after last field");
    }
  }
  [[noreturn]] void fail(const std::string& reason) const {
    throw SnapshotError(section_, reason);
  }

 private:
  template <class T>
  T scalar() {
    T v{};
    get(v);
    return v;
  }

  template <class T>
  void get(T& v) {
    if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(scalar<std::int32_t>());
    } else if constexpr (std::is_same_v<T, bool>) {
      v = scalar<std::uint8_t>() != 0;
    } else if constexpr (std::is_integral_v<T>) {
      need(sizeof(T));
      std::uint64_t u = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        u |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
      }
      pos_ += sizeof(T);
      v = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint64_t n = scalar<std::uint64_t>();
      need(n);
      v.assign(data_.substr(pos_, n));
      pos_ += n;
    } else if constexpr (requires { v.first; v.second; }) {
      get(v.first);
      get(v.second);
    } else {
      for (auto& x : v) get(x);
    }
  }

  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SnapshotError(section_,
                          "truncated payload: need " + std::to_string(n) +
                              " byte(s) at offset " + std::to_string(pos_) +
                              " of " + std::to_string(data_.size()));
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string section_;
};

}  // namespace bcs::snapshot
