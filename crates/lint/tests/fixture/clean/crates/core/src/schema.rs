wire_schema! {
    struct PutMetaMsg {
        nodes,
        root_idx,
    } words = 3;
}
