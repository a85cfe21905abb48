#![forbid(unsafe_code)]

fn main() {
    for m in camdn_models::zoo::all() {
        println!("{:14} {:3} layers  {:7.2} GMACs  weights {:7.2} MB  interm {:7.2} MB (max {:5.2} MB)  ratio {:.2}",
            m.name, m.num_layers(), m.total_macs() as f64/1e9,
            m.total_weight_bytes() as f64/1e6,
            m.total_intermediate_bytes() as f64/1e6,
            m.max_intermediate_bytes() as f64/1e6,
            m.intermediate_ratio());
    }
}
