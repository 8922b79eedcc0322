// Seeded text mutation for the hostile-input tests: the .bench parser, the
// NDJSON heartbeat and trace-fragment readers, and the --inject spec parser
// all take fixed-seed mutants of valid input from here, so every run
// replays the same corpus.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>

#include "util/prng.hpp"

namespace obd::testing_mutation {

/// One to three edits of `text`: a bit flip, an overwrite with one of
/// `specials` (the format's delimiters), a deleted span, a truncation, or
/// a span duplicated somewhere else. Spans are 1 to 24 bytes.
inline std::string mutate(std::string text, util::Prng& prng,
                          std::string_view specials) {
  const int ops = 1 + static_cast<int>(prng.next_below(3));
  for (int k = 0; k < ops && !text.empty(); ++k) {
    const std::size_t at = prng.next_below(text.size());
    const std::size_t span =
        std::min<std::size_t>(1 + prng.next_below(24), text.size() - at);
    switch (prng.next_below(5)) {
      case 0:  // flip one bit
        text[at] = static_cast<char>(text[at] ^ (1 << prng.next_below(8)));
        break;
      case 1:  // overwrite with a delimiter
        text[at] = specials[prng.next_below(specials.size())];
        break;
      case 2:
        text.erase(at, span);
        break;
      case 3:
        text.resize(at);
        break;
      default:  // duplicate a span somewhere else
        text.insert(prng.next_below(text.size() + 1), text.substr(at, span));
        break;
    }
  }
  return text;
}

}  // namespace obd::testing_mutation
