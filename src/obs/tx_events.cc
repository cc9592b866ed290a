#include "obs/tx_events.hh"

namespace getm {

const TxEvents noTxEvents{};

} // namespace getm
