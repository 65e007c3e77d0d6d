#include "core/arch_config.hpp"

#include "common/check.hpp"

namespace esca::core {

void ArchConfig::validate() const {
  ESCA_REQUIRE(kernel_size >= 1 && kernel_size % 2 == 1,
               "kernel_size must be odd and >= 1, got " << kernel_size);
  ESCA_REQUIRE(tile_size.x > 0 && tile_size.y > 0 && tile_size.z > 0,
               "tile_size must be positive, got " << tile_size);
  ESCA_REQUIRE(ic_parallel > 0 && oc_parallel > 0, "compute parallelism must be positive");
  ESCA_REQUIRE(fifo_depth > 0, "fifo_depth must be positive");
  ESCA_REQUIRE(mask_read_cycles > 0, "mask_read_cycles must be positive");
  ESCA_REQUIRE(pipeline_fill_cycles >= 0, "pipeline_fill_cycles must be non-negative");
  ESCA_REQUIRE(frequency_hz > 0.0, "frequency must be positive");
  ESCA_REQUIRE(activation_buffer_bytes > 0 && weight_buffer_bytes > 0 &&
                   mask_buffer_bytes > 0 && output_buffer_bytes > 0,
               "buffer sizes must be positive");
  mem.validate();
}

int ArchConfig::cycles_per_match(int in_channels, int out_channels) const {
  ESCA_REQUIRE(in_channels > 0 && out_channels > 0, "channel counts must be positive");
  const int ic_blocks = (in_channels + ic_parallel - 1) / ic_parallel;
  const int oc_blocks = (out_channels + oc_parallel - 1) / oc_parallel;
  return ic_blocks * oc_blocks;
}

sim::mem::TrafficModelConfig ArchConfig::traffic_model_config() const {
  sim::mem::TrafficModelConfig cfg;
  cfg.mem = mem;
  cfg.dram = dram;
  cfg.weight_buffer_bytes = weight_buffer_bytes;
  cfg.activation_buffer_bytes = activation_buffer_bytes;
  cfg.mask_buffer_bytes = mask_buffer_bytes;
  return cfg;
}

sim::mem::GlobalBufferConfig ArchConfig::buffer_geometry() const {
  return mem.buffer.resolved(activation_buffer_bytes);
}

}  // namespace esca::core
