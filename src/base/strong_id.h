#ifndef RAV_BASE_STRONG_ID_H_
#define RAV_BASE_STRONG_ID_H_

#include <cstddef>
#include <functional>

namespace rav {

// A tagged integer id: same cost and layout as a plain int, but a
// distinct type per Tag, so a StateId cannot silently flow into a
// parameter expecting a RegisterId (the bug class
// bugprone-easily-swappable-parameters exists to catch — the .clang-tidy
// gate enforces it since the typed-core refactor). Construction from the
// underlying int is explicit; the only way back is value().
//
// Conventions (CONTRIBUTING.md "Minting a new id type"):
//   * ids are dense non-negative indices; the default-constructed id is
//     the invalid sentinel (-1, the idiom the codebase already used),
//   * containers stay std::vector<T> indexed by id.value() — the wrapper
//     types the *seams* (signatures, struct fields), not the arithmetic
//     inside one function,
//   * loops over a dense id space use an IdRange (see below) so the loop
//     variable itself is typed.
template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(int value) : value_(value) {}

  constexpr int value() const { return value_; }
  // Ids are dense vector indices; valid() is the -1-sentinel check the
  // raw-int idiom spelled `id >= 0`.
  constexpr bool valid() const { return value_ >= 0; }
  static constexpr StrongId Invalid() { return StrongId(); }

  friend constexpr bool operator==(StrongId, StrongId) = default;
  friend constexpr auto operator<=>(StrongId, StrongId) = default;

 private:
  int value_ = -1;
};

// Iterable dense id range [0, count): `for (StateId q : a.States())`.
template <typename Id>
class IdRange {
 public:
  class Iterator {
   public:
    constexpr explicit Iterator(int value) : value_(value) {}
    constexpr Id operator*() const { return Id(value_); }
    constexpr Iterator& operator++() {
      ++value_;
      return *this;
    }
    friend constexpr bool operator==(Iterator, Iterator) = default;

   private:
    int value_;
  };

  constexpr explicit IdRange(int count) : count_(count) {}
  constexpr Iterator begin() const { return Iterator(0); }
  constexpr Iterator end() const { return Iterator(count_); }
  constexpr int size() const { return count_; }

 private:
  int count_;
};

// The core id vocabulary. Each alias is its own type; pick the one that
// names the index space, or mint a new tag when a new dense space
// appears (CONTRIBUTING.md).
//
// Dense id of a control state of a register automaton.
using StateId = StrongId<struct StateIdTag>;
// 0-based register index of a k-register automaton.
using RegisterId = StrongId<struct RegisterIdTag>;
// Dense id of a distinct compiled guard (compile::GuardTableSet).
using GuardId = StrongId<struct GuardIdTag>;
// Dense id of a control symbol (q, δ) of a ControlAlphabet.
using SymbolId = StrongId<struct SymbolIdTag>;
// Dense ids of the distinct x̄ frontier restrictions and of the distinct
// ȳ frontier restrictions (renamed onto x̄) of a guard set — two spaces,
// so a compatibility lookup cannot swap them (compile::FrontierClasses).
using XClassId = StrongId<struct XClassIdTag>;
using YClassId = StrongId<struct YClassIdTag>;
// Element id of a σ-type: variables first, then constant symbols
// (TypeBuilder::X/Y/Const produce these).
using ElementIndex = StrongId<struct ElementIndexTag>;

}  // namespace rav

template <typename Tag>
struct std::hash<rav::StrongId<Tag>> {
  size_t operator()(rav::StrongId<Tag> id) const {
    return std::hash<int>{}(id.value());
  }
};

#endif  // RAV_BASE_STRONG_ID_H_
