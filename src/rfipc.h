// rfipc — Ruleset-Feature-Independent Packet Classification engines.
//
// Umbrella header: pulls in the whole public API. Fine-grained headers
// are available under net/, ruleset/, engines/, fpga/, sim/, util/.
//
// Quickstart:
//   auto rules  = rfipc::ruleset::RuleSet::table1_example();
//   auto engine = rfipc::engines::make_engine("stridebv:4", rules);
//   auto result = engine->classify_tuple(tuple);
//   if (result.has_match()) use(rules[result.best].action);
#pragma once

#include "net/header.h"
#include "net/ipv4.h"
#include "net/packet_parser.h"
#include "net/pcap.h"
#include "net/port_range.h"
#include "net/protocol.h"

#include "ruleset/analyzer.h"
#include "ruleset/generator.h"
#include "ruleset/lang/format.h"
#include "ruleset/lang/lexer.h"
#include "ruleset/lang/rule_lang.h"
#include "ruleset/lang/source.h"
#include "ruleset/lowering.h"
#include "ruleset/parser.h"
#include "ruleset/rule.h"
#include "ruleset/ruleset.h"
#include "ruleset/ternary.h"
#include "ruleset/optimizer.h"
#include "ruleset/trace.h"
#include "ruleset/trace_io.h"

#include "engines/baselines/hicuts_lite.h"
#include "engines/baselines/published.h"
#include "engines/bv/abv.h"
#include "engines/bv/decomposition.h"
#include "engines/common/engine.h"
#include "engines/common/factory.h"
#include "engines/common/linear_engine.h"
#include "engines/hybrid/fsbv_hybrid.h"
#include "engines/stridebv/range_engine.h"
#include "engines/stridebv/stridebv_engine.h"
#include "engines/tcam/bcam.h"
#include "engines/tcam/partitioned_tcam.h"
#include "engines/tcam/srl16_model.h"
#include "engines/tcam/tcam_engine.h"

#include "runtime/sharded_classifier.h"
#include "runtime/stats.h"

#include "capture/afpacket_source.h"
#include "capture/capture_loop.h"
#include "capture/capture_source.h"
#include "capture/pcap_source.h"

#include "server/classify_server.h"
#include "server/client.h"
#include "server/event_loop.h"
#include "server/wire.h"

#include "flow/flow_cache.h"
#include "flow/generic.h"
#include "flow/schema.h"

#include "lpm/route_table.h"
#include "lpm/tcam_lpm.h"
#include "lpm/trie_lpm.h"

#include "fpga/asic_tcam.h"
#include "fpga/design_point.h"
#include "fpga/device.h"
#include "fpga/multipipeline.h"
#include "fpga/power_model.h"
#include "fpga/report.h"
#include "fpga/resource_model.h"
#include "fpga/timing_model.h"
#include "fpga/tree_pipeline.h"
#include "fpga/update_model.h"

#include "sim/pipeline_sim.h"

#include "util/bitops.h"
#include "util/bitvector.h"
#include "util/simd.h"
#include "util/cli.h"
#include "util/prng.h"
#include "util/str.h"
#include "util/table.h"
