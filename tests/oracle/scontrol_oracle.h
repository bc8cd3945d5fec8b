#ifndef RAV_TESTS_ORACLE_SCONTROL_ORACLE_H_
#define RAV_TESTS_ORACLE_SCONTROL_ORACLE_H_

#include "automata/nba.h"
#include "ra/control.h"
#include "ra/register_automaton.h"

namespace rav::oracle {

// The reference SControl(A) builder the production one
// (BuildSControlNba, ra/control.h) is checked against: it decides
// frontier compatibility with one Conjoin per distinct-guard pair (per
// symbol pair without compiled tables), fills a symbols × symbols matrix,
// and tries every previous symbol for every transition —
// O(guards² Conjoins + symbols² + transitions · symbols). Same state
// numbering, initial / accepting sets and per-state transition order as
// production. Test-only.
Nba ReferenceBuildSControlNba(const RegisterAutomaton& automaton,
                              const ControlAlphabet& alphabet);

}  // namespace rav::oracle

#endif  // RAV_TESTS_ORACLE_SCONTROL_ORACLE_H_
