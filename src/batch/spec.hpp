// The job description lives in the monitor layer, which runs it
// (monitor/spec.hpp); the batch layer, serve and the tools name it here.
#pragma once

#include "monitor/spec.hpp"

namespace plin::batch {

using monitor::algorithm_token;
using monitor::Axis;
using monitor::axes;
using monitor::find_axis;
using monitor::fnv1a64;
using monitor::JobSpec;
using monitor::layout_token;
using monitor::machine_from_name;
using monitor::optional_columns;
using monitor::OptionalColumns;
using monitor::spec_from_json;
using monitor::spec_to_json;
using monitor::Tier;

}  // namespace plin::batch
