package dcf

// DataLogLen reports how many senders the station's receiver data log
// holds, for the soak test.
func (st *Station) DataLogLen() int { return len(st.lastData) }
