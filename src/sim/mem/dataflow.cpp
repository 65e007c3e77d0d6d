#include "sim/mem/dataflow.hpp"

namespace esca::sim::mem {

const char* to_string(Dataflow dataflow) {
  switch (dataflow) {
    case Dataflow::kWeightStationary: return "ws";
    case Dataflow::kOutputStationary: return "os";
  }
  return "?";
}

}  // namespace esca::sim::mem
