#include "sim/mem/dataflow.hpp"

#include "common/check.hpp"

namespace esca::sim::mem {

const char* to_string(Dataflow dataflow) {
  switch (dataflow) {
    case Dataflow::kWeightStationary: return "ws";
    case Dataflow::kOutputStationary: return "os";
  }
  return "?";
}

Dataflow parse_dataflow(const std::string& name) {
  if (name == "ws" || name == "weight_stationary") return Dataflow::kWeightStationary;
  ESCA_REQUIRE(name == "os" || name == "output_stationary",
               "unknown dataflow '" << name << "' (want ws|os)");
  return Dataflow::kOutputStationary;
}

}  // namespace esca::sim::mem
