// Template identifiers, shared by the model (core) and the record store
// (logstore) without either depending on the other.
#pragma once

#include <cstdint>

namespace bytebrain {

/// Identifier of a template (a node in the clustering tree). 0 is reserved
/// for "no template assigned yet".
using TemplateId = uint64_t;
constexpr TemplateId kInvalidTemplateId = 0;

}  // namespace bytebrain
