#include "device/table_builder.hpp"

namespace tfetsram::device {

std::shared_ptr<const DeviceTable> build_table(
    spice::TransistorModelPtr source, const TableSpec& spec) {
    return std::make_shared<DeviceTable>(std::move(source), spec);
}

} // namespace tfetsram::device
