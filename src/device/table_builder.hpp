#pragma once
// Extraction of a DeviceTable from any TransistorModel — the analogue of
// sweeping the TCAD deck over bias and dumping I-V / C-V tables. The sweep
// is lazy: the table samples each bias region the first time a circuit
// visits it (DeviceTable, docs/DEVICE_MODEL.md §3).

#include <memory>

#include "device/device_table.hpp"

namespace tfetsram::device {

/// An empty DeviceTable over `source`'s spec grid. It shares ownership of
/// the source, which it samples on first use of each node.
std::shared_ptr<const DeviceTable> build_table(
    spice::TransistorModelPtr source, const TableSpec& spec = {});

} // namespace tfetsram::device
